package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"sfcp/internal/coarsest"
	"sfcp/internal/workload"
)

// families builds one instance of every internal/workload coarsest-
// partition family at (roughly) n elements.
func families(seed int64, n int) map[string]coarsest.Instance {
	k := n / 16
	if k < 1 {
		k = 1
	}
	wl := map[string]workload.Instance{
		"random-function": workload.RandomFunction(seed, n, 3),
		"permutation":     workload.RandomPermutation(seed, n, 3),
		"cycle-family":    workload.CycleFamily(seed, k, 16, 4),
		"distinct-cycles": workload.DistinctCycles(seed, k, 16, 3),
		"broom":           workload.Broom(seed, n, 16, 8),
		"star":            workload.Star(seed, n, 3),
		"unary-dfa":       workload.UnaryDFA(seed, n, 300),
	}
	out := make(map[string]coarsest.Instance, len(wl))
	for name, ins := range wl {
		out[name] = coarsest.Instance{F: ins.F, B: ins.B}
	}
	return out
}

// TestPlannerAgreesWithLinear is the differential gate on the planner:
// whatever Auto resolves to — on either side of 2^15, the former
// parallel crossover, with a one-worker and a wide budget — executing the
// plan must give labels equal to the linear reference exactly (all
// solvers normalize by first occurrence, so equality is slice-wise).
func TestPlannerAgreesWithLinear(t *testing.T) {
	for _, n := range []int{1 << 14, 1 << 15} {
		for name, in := range families(1993, n) {
			want := coarsest.LinearSequential(in)
			for _, workers := range []int{1, 16} {
				plan, err := MakePlan(in, Request{Algorithm: Auto, Workers: workers})
				if err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, name, workers, err)
				}
				if plan.Algorithm == Auto {
					t.Errorf("n=%d %s: plan not resolved past Auto", n, name)
				}
				sol, err := Execute(context.Background(), in, plan, 0, nil)
				if err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, name, workers, err)
				}
				if !reflect.DeepEqual(sol.Labels, want) {
					t.Errorf("n=%d %s workers=%d: auto (resolved %s) disagrees with linear",
						n, name, workers, plan.Algorithm)
				}
				if sol.NumClasses != coarsest.NumClasses(want) {
					t.Errorf("n=%d %s: NumClasses %d, want %d", n, name, sol.NumClasses, coarsest.NumClasses(want))
				}
			}
		}
	}
}

// TestPlanDeterminism: identical instances and requests always yield
// identical plans, reason string and all.
func TestPlanDeterminism(t *testing.T) {
	for name, in := range families(7, 1<<14) {
		for _, req := range []Request{
			{Algorithm: Auto},
			{Algorithm: Auto, Workers: 16},
			{Algorithm: NativeParallel},
			{Algorithm: Linear},
		} {
			first, err := MakePlan(in, req)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, req, err)
			}
			for i := 0; i < 3; i++ {
				again, err := MakePlan(in, req)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, req, err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("%s %+v: plan not deterministic:\n%+v\n%+v", name, req, first, again)
				}
			}
		}
	}
}

// TestCrossoverRules pins the planner's decision table around 2^15, the
// former parallel crossover. Auto resolves to the linear solver on one
// worker at every size and budget, for single instances and batches
// alike. An explicit native-parallel request keeps its grant: an
// unstated budget gets one worker per 2^14 elements, at least one and at
// most NumCPU, and an explicit count passes through.
func TestCrossoverRules(t *testing.T) {
	cpus := runtime.NumCPU()
	cases := []struct {
		n         int
		npWorkers int // explicit native-parallel with Workers: 0
	}{
		{1, 1},
		{1<<15 - 1, 1},
		{1 << 15, min(2, cpus)},
		{1 << 20, min(64, cpus)},
	}
	small := families(3, 1<<10)["random-function"]
	for _, tc := range cases {
		wl := workload.RandomFunction(3, tc.n, 3)
		in := coarsest.Instance{F: wl.F, B: wl.B}
		batch := []coarsest.Instance{small, in, small}
		for _, workers := range []int{0, 1, 2, 8, 64} {
			req := Request{Algorithm: Auto, Workers: workers}
			plan, err := MakePlan(in, req)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", tc.n, workers, err)
			}
			if plan != autoPlan {
				t.Errorf("n=%d workers=%d: auto plan = %+v, want %+v", tc.n, workers, plan, autoPlan)
			}
			bplan, err := MakeBatchPlan(batch, req)
			if err != nil {
				t.Fatalf("batch max n=%d workers=%d: %v", tc.n, workers, err)
			}
			if bplan != autoPlan {
				t.Errorf("batch max n=%d workers=%d: auto plan = %+v, want %+v", tc.n, workers, bplan, autoPlan)
			}
		}
		for _, w := range []struct{ req, want int }{{0, tc.npWorkers}, {3, 3}} {
			plan, err := MakePlan(in, Request{Algorithm: NativeParallel, Workers: w.req})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Algorithm != NativeParallel || plan.Workers != w.want {
				t.Errorf("n=%d explicit native-parallel workers=%d: %s/%d, want native-parallel/%d",
					tc.n, w.req, plan.Algorithm, plan.Workers, w.want)
			}
		}
	}
}

// TestExplicitPlans: explicit algorithm requests are honored verbatim,
// and an explicit worker count on native-parallel is an instruction.
func TestExplicitPlans(t *testing.T) {
	in := families(5, 1<<17)["random-function"]
	for _, algo := range []Algorithm{Moore, Hopcroft, Linear, ParallelPRAM, NativeParallel, DoublingHash, DoublingSort} {
		plan, err := MakePlan(in, Request{Algorithm: algo, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if plan.Algorithm != algo {
			t.Errorf("explicit %v request resolved to %v", algo, plan.Algorithm)
		}
	}
	explicit, _ := MakePlan(in, Request{Algorithm: NativeParallel, Workers: 64})
	if explicit.Workers != 64 {
		t.Errorf("explicit worker count overridden: %d", explicit.Workers)
	}
}

// TestUnknownAlgorithm: planning and execution both reject values outside
// the dispatch table.
func TestUnknownAlgorithm(t *testing.T) {
	in := coarsest.Instance{F: []int{0}, B: []int{0}}
	if _, err := MakePlan(in, Request{Algorithm: Algorithm(99)}); err == nil {
		t.Error("MakePlan accepted Algorithm(99)")
	}
	if _, err := Execute(context.Background(), in, Plan{Algorithm: Auto}, 0, nil); err == nil {
		t.Error("Execute accepted an unresolved Auto plan")
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
