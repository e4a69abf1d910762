package sfcp

import (
	"bytes"
	"io"
	"testing"
)

// TestBinaryDecoderStream drains concatenated instances through one
// BinaryDecoder and solves each — the supported pattern for multi-instance
// streams (DecodeBinary's chunked read-ahead makes it one-shot per reader).
func TestBinaryDecoderStream(t *testing.T) {
	instances := []Instance{
		{F: []int{1, 0}, B: []int{0, 1}},
		{F: []int{0}, B: []int{2}},
		{F: []int{2, 0, 1}, B: []int{0, 0, 1}},
	}
	var stream bytes.Buffer
	for _, ins := range instances {
		if err := ins.EncodeBinary(&stream); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewBinaryDecoder(&stream)
	var count int
	for {
		ins, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("instance %d: %v", count, err)
		}
		if len(dec.Digest()) != 16 {
			t.Fatalf("instance %d: digest %q", count, dec.Digest())
		}
		want, err := SolveWith(instances[count], Options{Algorithm: AlgorithmMoore})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveWith(ins, Options{Algorithm: AlgorithmLinear})
		if err != nil {
			t.Fatal(err)
		}
		if !SamePartition(got.Labels, want.Labels) {
			t.Fatalf("instance %d: partition disagrees with moore", count)
		}
		count++
	}
	if count != len(instances) {
		t.Fatalf("decoded %d instances, want %d", count, len(instances))
	}
}

// TestDecodeBinaryEmptyAndGarbage: a clean end of stream is io.EOF, and
// bytes that are not the wire format are rejected.
func TestDecodeBinaryEmptyAndGarbage(t *testing.T) {
	if _, err := DecodeBinary(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	if _, err := DecodeBinary(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage stream accepted")
	}
}
