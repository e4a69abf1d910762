package engine

import (
	"slices"
	"strings"
	"testing"

	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
	"sfcp/internal/workload"
)

// widen copies a session's int32 labels into []int.
func widen(labels []int32) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}

// cyclesDelta is 100 distinct 16-node cycles and a delta relabelling one
// node in each of the first dirty of them, so the delta dirties exactly
// dirty/100 of the instance.
func cyclesDelta(dirty int) (coarsest.Instance, func(int) []incr.Edit) {
	wl := workload.DistinctCycles(11, 100, 16, 3)
	return coarsest.Instance{F: wl.F, B: wl.B}, func(int) []incr.Edit {
		edits := make([]incr.Edit, dirty)
		for c := range edits {
			edits[c] = incr.Edit{Node: c * 16, SetB: true, B: 7}
		}
		return edits
	}
}

// chainsChurn is four 16-node chains, each hanging off a self-loop, and
// a delta stream relabelling the middle of the first chain with a fresh
// label every round. Each delta dirties a quarter of the instance and
// mints codes for the eight nodes below the edit, until the persistent
// code space runs out.
func chainsChurn() (coarsest.Instance, func(int) []incr.Edit) {
	const chains, length = 4, 16
	in := coarsest.Instance{F: make([]int, chains*length), B: make([]int, chains*length)}
	for c := 0; c < chains; c++ {
		for i := 1; i < length; i++ {
			in.F[c*length+i] = c*length + i - 1
		}
		in.F[c*length] = c * length
	}
	return in, func(round int) []incr.Edit {
		return []incr.Edit{{Node: length / 2, SetB: true, B: 1000 + round}}
	}
}

// twoCycleChurn is 512 two-cycles with one label, and a delta stream
// giving one node a fresh label every round. Each delta mints a canonical
// string of period two, a map entry of about 50 bytes for two codes, so
// the session passes its byte budget before its code space runs out.
func twoCycleChurn() (coarsest.Instance, func(int) []incr.Edit) {
	const n = 1024
	in := coarsest.Instance{F: make([]int, n), B: make([]int, n)}
	for x := range in.F {
		in.F[x] = x ^ 1
	}
	return in, func(round int) []incr.Edit {
		return []incr.Edit{{Node: 2 * (round % (n / 2)), SetB: true, B: 1000 + round}}
	}
}

// TestResolveValve pins the one delta path: ResolveDelta re-solves the
// dirty region unless the session's valve re-founds the state, and the
// reason names the cause. Each row applies deltas until one resolves to
// the wanted mode, and after every delta the labels equal a full solve
// of the edited instance.
func TestResolveValve(t *testing.T) {
	half, halfDelta := cyclesDelta(50)
	bw := workload.Broom(5, 200, 12, 4)
	chains, churn := chainsChurn()
	pairs, mint := twoCycleChurn()
	for _, tc := range []struct {
		name   string
		in     coarsest.Instance
		delta  func(round int) []incr.Edit
		rounds int
		mode   string
		reason string
	}{
		{"half", half, halfDelta, 1, ResolveIncremental, "dirty fraction 0.500 (800/1600 nodes across 50 components); component-scoped incremental re-solve"},
		{"broom", coarsest.Instance{F: bw.F, B: bw.B}, func(int) []incr.Edit { return []incr.Edit{{Node: 150, SetB: true, B: 9}} }, 1,
			ResolveFullFallback, "dirty fraction 1.000 (200/200 nodes across 1 components); no clean node left, state re-founded"},
		{"codes", chains, churn, 100, ResolveFullFallback, "(16/64 nodes across 1 components); code space exhausted, state re-founded"},
		{"bytes", pairs, mint, 2000, ResolveFullFallback, "(2/1024 nodes across 1 components); state bytes past budget, state re-founded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewIncremental(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			edited := coarsest.Instance{F: slices.Clone(tc.in.F), B: slices.Clone(tc.in.B)}
			for round := 0; round < tc.rounds; round++ {
				edits := tc.delta(round)
				for _, e := range edits {
					edited.B[e.Node] = e.B
				}
				out, err := ResolveDelta(st, edits)
				if err != nil {
					t.Fatal(err)
				}
				want := coarsest.LinearSequential(edited)
				if !slices.Equal(widen(st.Labels()), want) || out.Info.NumClasses != coarsest.NumClasses(want) {
					t.Fatalf("round %d: %s re-solve disagrees with a full solve of the edited instance", round, out.Mode)
				}
				if out.Mode == tc.mode {
					if !strings.Contains(out.Reason, tc.reason) {
						t.Errorf("round %d: reason %q, want it to contain %q", round, out.Reason, tc.reason)
					}
					return
				}
			}
			t.Fatalf("no delta in %d rounds resolved %s", tc.rounds, tc.mode)
		})
	}
}
