package sfcp

import (
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
	if res.Plan.Algorithm == AlgorithmAuto {
		t.Error("plan not resolved past auto")
	}
	if res.Plan.Reason == "" || !res.Plan.Features.Probed {
		t.Errorf("auto plan missing reason or probe features: %+v", res.Plan)
	}
	if res.Timings.Solve <= 0 {
		t.Errorf("missing solve timing: %+v", res.Timings)
	}

	// An explicit request resolves to itself, without probing.
	res, err = SolveWith(ins, Options{Algorithm: AlgorithmHopcroft})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Algorithm != AlgorithmHopcroft || res.Plan.Features.Probed {
		t.Errorf("explicit plan = %+v", res.Plan)
	}
}

// TestPlanWithAllocs pins the cost of planning an Auto request, which
// sfcpd pays on every request: validation, the probe and the plan with
// its fixed reason allocate nothing on a small instance.
func TestPlanWithAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	wl := workload.RandomFunction(7, 16, 3)
	ins := Instance{F: wl.F, B: wl.B}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := PlanWith(ins, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("PlanWith at n=16 allocates %.0f times per call, want 0", allocs)
	}
}

// TestPlanWithMatchesSolve: the standalone planner returns exactly the
// plan a solve of the same (instance, options) executes, deterministically.
func TestPlanWithMatchesSolve(t *testing.T) {
	wl := workload.RandomPermutation(5, 3000, 3)
	ins := Instance{F: wl.F, B: wl.B}
	opts := Options{Workers: 2}

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

	s := NewSolver(opts)
	splan, err := s.Plan(ins)
	if err != nil || !reflect.DeepEqual(splan, plan) {
		t.Errorf("Solver.Plan = %+v, want %+v (%v)", splan, plan, err)
	}
	sres, err := s.Solve(ins)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Plan == nil || !reflect.DeepEqual(*sres.Plan, plan) {
		t.Errorf("Solver result plan = %+v, want %+v", sres.Plan, plan)
	}

	if _, err := PlanWith(Instance{F: []int{5}, B: []int{0}}, Options{}); err == nil {
		t.Error("PlanWith accepted an invalid instance")
	}
}
