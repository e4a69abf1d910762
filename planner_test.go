package sfcp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sfcp/internal/coarsest"
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
// the labels, the Result's plan and the cycle's canonical key. The arena
// comes from the process-wide pool behind the dispatch table, so the
// package-level SolvePlanned and SolveWith pay for none once a solve has
// warmed it, and the class count comes from the solver's own renumber,
// not from a NumClasses pass with its n-entry table. A two-member batch
// adds only its result and error slices.
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
	ctx := context.Background()
	batch := []Instance{ins, ins}
	solver := NewSolver(Options{})
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"SolvePlanned", 3, func() error {
			_, err := SolvePlanned(ctx, ins, plan, Options{})
			return err
		}},
		{"SolveWith", 3, func() error {
			_, err := SolveWith(ins, Options{})
			return err
		}},
		{"Solver.SolveBatchPlanned of two members", 9, func() error {
			_, errs := solver.SolveBatchPlanned(ctx, batch, plan)
			return errors.Join(errs...)
		}},
	} {
		if err := c.run(); err != nil { // warm the arena
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if allocs > c.max {
			t.Errorf("warm %s on a %d-node cycle allocates %.0f times, want at most %.0f", c.name, n, allocs, c.max)
		}
	}
}

// TestPlanWithMatchesSolve: the standalone planner returns exactly the
// plan a solve of the same (instance, options) executes, deterministically,
// and executing that plan through SolvePlanned reports it back.
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

			sres, err := SolvePlanned(context.Background(), ins, plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sres.Plan == nil || !reflect.DeepEqual(*sres.Plan, plan) {
				t.Errorf("SolvePlanned result plan = %+v, want %+v", sres.Plan, plan)
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

// families builds one instance of every internal/workload coarsest-
// partition family at (roughly) n elements.
func families(seed int64, n int) map[string]Instance {
	k := max(n/16, 1)
	return map[string]Instance{
		"random-function": Instance(workload.RandomFunction(seed, n, 3)),
		"permutation":     Instance(workload.RandomPermutation(seed, n, 3)),
		"cycle-family":    Instance(workload.CycleFamily(seed, k, 16, 4)),
		"distinct-cycles": Instance(workload.DistinctCycles(seed, k, 16, 3)),
		"broom":           Instance(workload.Broom(seed, n, 16, 8)),
		"star":            Instance(workload.Star(seed, n, 3)),
		"unary-dfa":       Instance(workload.UnaryDFA(seed, n, 300)),
	}
}

// TestPlannerAgreesWithLinear is the differential gate on the planner:
// whatever Auto resolves to, with a one-worker and a wide budget,
// executing the plan on instances either side of 2^15 (the former
// parallel crossover) must give labels equal to the linear reference
// exactly (all solvers normalize by first occurrence, so equality is
// slice-wise).
func TestPlannerAgreesWithLinear(t *testing.T) {
	for _, workers := range []int{1, 16} {
		plan, err := makePlan(Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if plan.Algorithm == AlgorithmAuto {
			t.Fatalf("workers=%d: plan not resolved past Auto", workers)
		}
		for _, n := range []int{1 << 14, 1 << 15} {
			for name, ins := range families(1993, n) {
				want := coarsest.LinearSequential(coarsest.Instance(ins))
				res, err := execute(context.Background(), ins, plan, 0)
				if err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, name, workers, err)
				}
				if !reflect.DeepEqual(res.Labels, want) {
					t.Errorf("n=%d %s workers=%d: auto (resolved %s) disagrees with linear",
						n, name, workers, plan.Algorithm)
				}
				if res.NumClasses != coarsest.NumClasses(want) {
					t.Errorf("n=%d %s: NumClasses %d, want %d", n, name, res.NumClasses, coarsest.NumClasses(want))
				}
			}
		}
	}
}

// TestPlanDeterminism: identical requests always yield identical plans,
// reason string and all.
func TestPlanDeterminism(t *testing.T) {
	for _, opts := range []Options{
		{Algorithm: AlgorithmAuto},
		{Algorithm: AlgorithmAuto, Workers: 16},
		{Algorithm: AlgorithmParallelPRAM},
		{Algorithm: AlgorithmLinear},
	} {
		first, err := makePlan(opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for i := 0; i < 3; i++ {
			again, err := makePlan(opts)
			if err != nil {
				t.Fatalf("%+v: %v", opts, err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%+v: plan not deterministic:\n%+v\n%+v", opts, first, again)
			}
		}
	}
}

// TestCrossoverRules pins the planner's decision table, which reads no
// instance. Auto resolves to the linear solver on one worker at every
// budget, for single instances and for a batch with a member either side
// of 2^15, the former parallel crossover. An explicit simulator request
// runs on NumCPU workers when it leaves the budget unstated and on
// exactly the stated count otherwise; the sequential solvers get one.
func TestCrossoverRules(t *testing.T) {
	var batch []Instance
	for _, n := range []int{1<<15 - 1, 1 << 15} {
		batch = append(batch, Instance(workload.RandomFunction(3, n, 3)))
	}
	cpus := runtime.NumCPU()
	for _, w := range []struct {
		algo      Algorithm
		req, want int
	}{
		{AlgorithmAuto, 0, 1}, {AlgorithmAuto, 1, 1}, {AlgorithmAuto, 64, 1},
		{AlgorithmParallelPRAM, 0, cpus}, {AlgorithmParallelPRAM, -1, cpus}, {AlgorithmParallelPRAM, 3, 3},
		{AlgorithmDoublingHash, 0, cpus}, {AlgorithmDoublingSort, 5, 5},
		{AlgorithmLinear, 8, 1}, {AlgorithmMoore, 0, 1}, {AlgorithmHopcroft, 2, 1},
	} {
		opts := Options{Algorithm: w.algo, Workers: w.req}
		plan, err := makePlan(opts)
		if err != nil {
			t.Fatal(err)
		}
		bplan, err := PlanBatch(batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		if w.algo == AlgorithmAuto && (plan != autoPlan || bplan != autoPlan) {
			t.Errorf("auto workers=%d: plan %+v, batch plan %+v, want %+v", w.req, plan, bplan, autoPlan)
		}
		if plan.Workers != w.want || bplan.Workers != w.want {
			t.Errorf("%v workers=%d: resolved %d workers (batch %d), want %d",
				w.algo, w.req, plan.Workers, bplan.Workers, w.want)
		}
	}
}

// TestExplicitPlans: explicit algorithm requests are honored verbatim,
// and an explicit worker count on a simulator algorithm is an
// instruction.
func TestExplicitPlans(t *testing.T) {
	for _, algo := range Algorithms()[1:] {
		plan, err := makePlan(Options{Algorithm: algo, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if plan.Algorithm != algo {
			t.Errorf("explicit %v request resolved to %v", algo, plan.Algorithm)
		}
	}
	explicit, _ := makePlan(Options{Algorithm: AlgorithmParallelPRAM, Workers: 64})
	if explicit.Workers != 64 {
		t.Errorf("explicit worker count overridden: %d", explicit.Workers)
	}
}

// TestUnknownAlgorithm: planning and execution both reject values outside
// the dispatch table.
func TestUnknownAlgorithm(t *testing.T) {
	ins := Instance{F: []int{0}, B: []int{0}}
	if _, err := makePlan(Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("makePlan accepted Algorithm(99)")
	}
	if _, err := PlanBatch([]Instance{ins}, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("PlanBatch accepted Algorithm(99)")
	}
	if _, err := execute(context.Background(), ins, Plan{Algorithm: AlgorithmAuto}, 0); err == nil {
		t.Error("execute accepted an unresolved Auto plan")
	}
}

// TestAlgorithmTextRoundTrip covers the JSON-facing text codec.
func TestAlgorithmTextRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		text, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Algorithm
		if err := back.UnmarshalText(text); err != nil || back != a {
			t.Errorf("round trip %v -> %s -> %v (%v)", a, text, back, err)
		}
	}
	var a Algorithm
	if err := a.UnmarshalText([]byte("nope")); err == nil {
		t.Error("UnmarshalText accepted an unknown name")
	}
}
