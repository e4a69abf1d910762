package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"sfcp"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := w.gen(7, 2, 16), w.gen(7, 2, 16)
			if !samePlan(a, b) {
				t.Fatal("two plans from seed 7 differ")
			}
			if samePlan(a, w.gen(8, 2, 16)) {
				t.Fatal("seeds 7 and 8 gave the same plan")
			}
		})
	}
}

func samePlan(a, b *plan) bool {
	if !reflect.DeepEqual(a.specs, b.specs) || !reflect.DeepEqual(a.bases, b.bases) ||
		!reflect.DeepEqual(a.warm, b.warm) || !reflect.DeepEqual(a.baseBin, b.baseBin) || len(a.clients) != len(b.clients) {
		return false
	}
	for c := range a.clients {
		if len(a.clients[c]) != len(b.clients[c]) {
			return false
		}
		for i, x := range a.clients[c] {
			y := b.clients[c][i]
			if x.kind != y.kind || !bytes.Equal(x.body, y.body) || !reflect.DeepEqual(x.members, y.members) ||
				!reflect.DeepEqual(x.edits, y.edits) || x.labels != y.labels || x.elems != y.elems {
				return false
			}
		}
	}
	return true
}

func TestSmallJSONShares(t *testing.T) {
	p := genSmallJSON(3, 2, 64)
	for _, ops := range p.clients {
		if len(ops) != segments*64 {
			t.Fatalf("%d ops per client, want %d", len(ops), segments*64)
		}
		batches, hot, slots := 0, 0, 0
		for _, o := range ops {
			if o.kind == opBatchJSON {
				batches++
				if len(o.members) != batchMembers {
					t.Fatalf("batch of %d members", len(o.members))
				}
			}
			for _, id := range o.members {
				slots++
				if id < hotSetSize {
					hot++
				}
			}
		}
		if batches != len(ops)/8 || hot != slots/2 {
			t.Errorf("%d batches in %d ops, %d hot of %d slots", batches, len(ops), hot, slots)
		}
	}
}

func TestLogUniformSizesAreStratified(t *testing.T) {
	sizes := logUniformSizes(rng(1, "t", 0), 40, 15, 20)
	seen := make([]int, 40)
	for _, n := range sizes {
		e := math.Log2(float64(n))
		if e < 15-1e-9 || e > 20+1e-9 {
			t.Fatalf("size %d outside [2^15, 2^20]", n)
		}
		seen[min(39, int((e-15)/5*40))]++
	}
	for i, c := range seen {
		// Rounding to an integer can nudge a size across a stratum edge.
		if c > 2 {
			t.Errorf("stratum %d holds %d sizes", i, c)
		}
	}
}

func TestDeltaEditsStayInBlock(t *testing.T) {
	p := genDeltaStream(5, 1, 16)
	bigs, labels := 0, 0
	for _, o := range p.clients[0] {
		if len(o.edits) == deltaBigEdits {
			bigs++
		}
		if o.labels {
			labels++
		}
		for _, e := range o.edits {
			if e.F != nil && *e.F/deltaBlock != e.Node/deltaBlock {
				t.Fatalf("edit retargets node %d to %d, outside its block", e.Node, *e.F)
			}
		}
		d, err := sfcp.DecodeDeltaBinary(bytes.NewReader(o.body))
		if err != nil || !reflect.DeepEqual(d.Edits, o.edits) {
			t.Fatalf("delta body does not round-trip: %v", err)
		}
	}
	if bigs != 4*segments || labels != segments {
		t.Errorf("%d large deltas and %d label reads in %d segments of 16 ops, want %d and %d", bigs, labels, segments, 4*segments, segments)
	}
}
