package store

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sfcp"
)

// TestPayloadRoundTrip covers the payload codecs over the metered memory
// store: both kinds round-trip, a second put of a present key writes
// nothing, a missing key is ErrNotFound and a garbage blob ErrCorrupt.
func TestPayloadRoundTrip(t *testing.T) {
	bs := NewMetered(NewMemBlobStore())
	ins := sfcp.Instance{F: []int{1, 2, 0, 3}, B: []int{0, 1, 0, 1}}
	labels := []int{0, 1, 0, 2}
	insKey, labelsKey := ins.Digest(), ResultKey("linear", 0, ins.Digest())

	for i := 0; i < 2; i++ {
		if err := PutInstance(bs, insKey, ins); err != nil {
			t.Fatalf("PutInstance: %v", err)
		}
		if err := PutLabels(bs, labelsKey, labels); err != nil {
			t.Fatalf("PutLabels: %v", err)
		}
	}
	if w := bs.Counts().Writes; w != 2 {
		t.Errorf("%d blob writes for two payloads put twice, want 2", w)
	}
	gotIns, err := GetInstance(bs, insKey)
	if err != nil || !reflect.DeepEqual(gotIns, ins) {
		t.Errorf("GetInstance = %+v, %v; want %+v", gotIns, err, ins)
	}
	gotLabels, err := GetLabels(bs, labelsKey)
	if err != nil || !reflect.DeepEqual(gotLabels, labels) {
		t.Errorf("GetLabels = %v, %v; want %v", gotLabels, err, labels)
	}

	missing := strings.Repeat("ab", 32)
	if _, err := GetLabels(bs, missing); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetLabels of a missing key: %v, want ErrNotFound", err)
	}
	if _, err := bs.Put(missing, strings.NewReader("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := GetInstance(bs, missing); !errors.Is(err, ErrCorrupt) {
		t.Errorf("GetInstance of a garbage blob: %v, want ErrCorrupt", err)
	}
	// A labels stream is not an instance, and the other way round.
	if _, err := GetInstance(bs, labelsKey); !errors.Is(err, ErrCorrupt) {
		t.Errorf("GetInstance of a labels blob: %v, want ErrCorrupt", err)
	}
}
