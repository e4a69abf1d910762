package sfcp

import (
	"slices"
	"strings"
	"testing"

	"sfcp/internal/coarsest"
	"sfcp/internal/workload"
)

// relabel is the edit setting B[node] = b.
func relabel(node, b int) Edit { return Edit{Node: node, B: &b} }

// cyclesDelta is 100 distinct 16-node cycles and a delta relabelling one
// node in each of the first dirty of them, so the delta dirties exactly
// dirty/100 of the instance.
func cyclesDelta(dirty int) (Instance, func(int) Delta) {
	return Instance(workload.DistinctCycles(11, 100, 16, 3)), func(int) Delta {
		edits := make([]Edit, dirty)
		for c := range edits {
			edits[c] = relabel(c*16, 7)
		}
		return Delta{Edits: edits}
	}
}

// chainsChurn is four 16-node chains, each hanging off a self-loop, and
// a delta stream relabelling the middle of the first chain with a fresh
// label every round. Each delta dirties a quarter of the instance and
// mints codes for the eight nodes below the edit, until the persistent
// code space runs out.
func chainsChurn() (Instance, func(int) Delta) {
	const chains, length = 4, 16
	in := Instance{F: make([]int, chains*length), B: make([]int, chains*length)}
	for c := 0; c < chains; c++ {
		for i := 1; i < length; i++ {
			in.F[c*length+i] = c*length + i - 1
		}
		in.F[c*length] = c * length
	}
	return in, func(round int) Delta {
		return Delta{Edits: []Edit{relabel(length/2, 1000+round)}}
	}
}

// twoCycleChurn is 512 two-cycles with one label, and a delta stream
// giving one node a fresh label every round. Each delta mints a canonical
// string of period two, a map entry of about 50 bytes for two codes, so
// the session passes its byte budget before its code space runs out.
func twoCycleChurn() (Instance, func(int) Delta) {
	const n = 1024
	in := Instance{F: make([]int, n), B: make([]int, n)}
	for x := range in.F {
		in.F[x] = x ^ 1
	}
	return in, func(round int) Delta {
		return Delta{Edits: []Edit{relabel(2*(round%(n/2)), 1000+round)}}
	}
}

// TestResolveValve pins the one delta path: Apply re-solves the dirty
// region unless the session's valve re-founds the state, and the reason
// names the cause. Each row applies deltas until one resolves to the
// wanted mode, and after every delta the labels and class count equal a
// full solve of the edited instance.
func TestResolveValve(t *testing.T) {
	half, halfDelta := cyclesDelta(50)
	chains, churn := chainsChurn()
	pairs, mint := twoCycleChurn()
	for _, tc := range []struct {
		name   string
		in     Instance
		delta  func(round int) Delta
		rounds int
		mode   string
		reason string
	}{
		{"half", half, halfDelta, 1, ResolveModeIncremental, "dirty fraction 0.500 (800/1600 nodes across 50 components); component-scoped incremental re-solve"},
		{"broom", Instance(workload.Broom(5, 200, 12, 4)), func(int) Delta { return Delta{Edits: []Edit{relabel(150, 9)}} }, 1,
			ResolveModeFullFallback, "dirty fraction 1.000 (200/200 nodes across 1 components); no clean node left, state re-founded"},
		{"codes", chains, churn, 100, ResolveModeFullFallback, "(16/64 nodes across 1 components); code space exhausted, state re-founded"},
		{"bytes", pairs, mint, 2000, ResolveModeFullFallback, "(2/1024 nodes across 1 components); state bytes past budget, state re-founded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc, err := NewIncremental(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			edited := coarsest.Instance{F: slices.Clone(tc.in.F), B: slices.Clone(tc.in.B)}
			for round := 0; round < tc.rounds; round++ {
				delta := tc.delta(round)
				for _, e := range delta.Edits {
					edited.B[e.Node] = *e.B
				}
				info, err := inc.Apply(delta)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := coarsest.LinearSequentialScratch(edited, nil)
				if !slices.Equal(inc.Labels(), want) || inc.NumClasses() != coarsest.NumClasses(want) {
					t.Fatalf("round %d: %s re-solve disagrees with a full solve of the edited instance", round, info.Mode)
				}
				if info.Mode == tc.mode {
					if !strings.Contains(info.Reason, tc.reason) {
						t.Errorf("round %d: reason %q, want it to contain %q", round, info.Reason, tc.reason)
					}
					return
				}
			}
			t.Fatalf("no delta in %d rounds resolved %s", tc.rounds, tc.mode)
		})
	}
}
