package main

import (
	"encoding/json"
	"testing"

	"sfcp/internal/server"
)

func TestStripLabels(t *testing.T) {
	body, err := json.Marshal(server.BatchResponse{Results: []server.SolveResponse{
		{Algorithm: "auto", Labels: []int{0, 1, 0, 2}, NumClasses: 3},
		{Algorithm: "auto", Error: `bad "labels":[1] input`},
		{Algorithm: "auto", Labels: []int{0}, NumClasses: 1, Cached: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fields, sums, err := stripLabels(body)
	if err != nil {
		t.Fatal(err)
	}
	want := []labelSum{sumLabels([]int{0, 1, 0, 2}), sumLabels([]int{0})}
	if len(sums) != 2 || sums[0] != want[0] || sums[1] != want[1] {
		t.Fatalf("sums = %v, want %v", sums, want)
	}
	var br server.BatchResponse
	if err := json.Unmarshal(fields, &br); err != nil {
		t.Fatalf("stripped reply is not JSON: %v\n%s", err, fields)
	}
	if br.Results[0].NumClasses != 3 || br.Results[0].Labels != nil || !br.Results[2].Cached ||
		br.Results[1].Error != `bad "labels":[1] input` {
		t.Errorf("fields lost in stripping: %+v", br)
	}
	for _, bad := range []string{`{"labels":[1,]}`, `{"labels":[1`, `{"labels":[-1]}`} {
		if _, _, err := stripLabels([]byte(bad)); err == nil {
			t.Errorf("stripLabels(%s) accepted a malformed array", bad)
		}
	}
}
