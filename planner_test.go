package sfcp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sfcp/internal/workload"
)

// TestResultCarriesPlan: every solve reports the resolved plan and stage
// timings, and AlgorithmAuto never leaks through unresolved.
func TestResultCarriesPlan(t *testing.T) {
	wl := workload.RandomFunction(3, 2000, 3)
	ins := Instance{F: wl.F, B: wl.B}
	res, err := SolveWith(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("Result.Plan is nil")
	}
	if res.Plan.Algorithm != AlgorithmLinear || res.Plan.Workers != 1 || res.Plan.Reason == "" {
		t.Errorf("auto plan = %+v, want linear on one worker with a reason", res.Plan)
	}
	if res.Timings.Plan <= 0 || res.Timings.Solve <= 0 {
		t.Errorf("missing stage timings: %+v", res.Timings)
	}

	// An explicit request resolves to itself.
	res, err = SolveWith(ins, Options{Algorithm: AlgorithmHopcroft})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Algorithm != AlgorithmHopcroft {
		t.Errorf("explicit plan = %+v", res.Plan)
	}
}

// TestPlanWithAllocs pins the cost of planning an Auto request, which
// sfcpd pays on every request, cache hits included: validation and the
// constant plan allocate nothing at any size, also with one label per
// element.
func TestPlanWithAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, n := range []int{16, 4096, 1 << 16} {
		wl := workload.RandomFunction(7, n, 3)
		for i := range wl.B {
			wl.B[i] = i
		}
		ins := Instance{F: wl.F, B: wl.B}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := PlanWith(ins, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("PlanWith at n=%d allocates %.0f times per call, want 0", n, allocs)
		}
	}
}

// TestSolvePlannedAllocs pins a warm linear solve at three allocations:
// the labels, the Result's plan and the cycle's canonical key. The class
// count comes from the solver's own renumber, not from a NumClasses pass
// with its n-entry table.
func TestSolvePlannedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 4096
	f, b := make([]int, n), make([]int, n)
	for i := range f {
		f[i] = (i + 1) % n
		b[i] = i % 3
	}
	ins := Instance{F: f, B: b}
	plan, err := PlanWith(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(Options{})
	ctx := context.Background()
	if _, err := solver.SolvePlanned(ctx, ins, plan); err != nil { // warm the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := solver.SolvePlanned(ctx, ins, plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("warm SolvePlanned on a %d-node cycle allocates %.0f times, want 3", n, allocs)
	}
}

// TestPlanWithMatchesSolve: the standalone planner returns exactly the
// plan a solve of the same (instance, options) executes, deterministically,
// and executing that plan through a Solver reports it back.
func TestPlanWithMatchesSolve(t *testing.T) {
	wl := workload.RandomPermutation(5, 3000, 3)
	ins := Instance{F: wl.F, B: wl.B}
	for _, opts := range []Options{{Workers: 2}, {Algorithm: AlgorithmDoublingHash}, {Algorithm: AlgorithmParallelPRAM, Workers: 3}} {
		t.Run(fmt.Sprint(opts.Algorithm), func(t *testing.T) {
			plan, err := PlanWith(ins, opts)
			if err != nil {
				t.Fatal(err)
			}
			again, err := PlanWith(ins, opts)
			if err != nil || !reflect.DeepEqual(plan, again) {
				t.Fatalf("PlanWith not deterministic: %+v vs %+v (%v)", plan, again, err)
			}

			res, err := SolveWith(ins, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*res.Plan, plan) {
				t.Errorf("solve executed plan %+v, PlanWith promised %+v", *res.Plan, plan)
			}

			sres, err := NewSolver(opts).SolvePlanned(context.Background(), ins, plan)
			if err != nil {
				t.Fatal(err)
			}
			if sres.Plan == nil || !reflect.DeepEqual(*sres.Plan, plan) {
				t.Errorf("Solver result plan = %+v, want %+v", sres.Plan, plan)
			}
			if !reflect.DeepEqual(sres.Labels, res.Labels) || sres.Timings.Plan != 0 {
				t.Errorf("SolvePlanned: labels differ from SolveWith's, or Timings.Plan = %v is not zero", sres.Timings.Plan)
			}
		})
	}

	if _, err := PlanWith(Instance{F: []int{5}, B: []int{0}}, Options{}); err == nil {
		t.Error("PlanWith accepted an invalid instance")
	}
}
