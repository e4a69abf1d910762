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
// whatever Auto resolves to, with a one-worker and a wide budget,
// executing the plan on instances either side of 2^15 (the former
// parallel crossover) must give labels equal to the linear reference
// exactly (all solvers normalize by first occurrence, so equality is
// slice-wise).
func TestPlannerAgreesWithLinear(t *testing.T) {
	for _, workers := range []int{1, 16} {
		plan, err := MakePlan(Request{Algorithm: Auto, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if plan.Algorithm == Auto {
			t.Fatalf("workers=%d: plan not resolved past Auto", workers)
		}
		for _, n := range []int{1 << 14, 1 << 15} {
			for name, in := range families(1993, n) {
				want := coarsest.LinearSequential(in)
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

// TestPlanDeterminism: identical requests always yield identical plans,
// reason string and all.
func TestPlanDeterminism(t *testing.T) {
	for _, req := range []Request{
		{Algorithm: Auto},
		{Algorithm: Auto, Workers: 16},
		{Algorithm: ParallelPRAM},
		{Algorithm: Linear},
	} {
		first, err := MakePlan(req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		for i := 0; i < 3; i++ {
			again, err := MakePlan(req)
			if err != nil {
				t.Fatalf("%+v: %v", req, err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%+v: plan not deterministic:\n%+v\n%+v", req, first, again)
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
	var batch []coarsest.Instance
	for _, n := range []int{1<<15 - 1, 1 << 15} {
		wl := workload.RandomFunction(3, n, 3)
		batch = append(batch, coarsest.Instance{F: wl.F, B: wl.B})
	}
	cpus := runtime.NumCPU()
	for _, w := range []struct {
		algo      Algorithm
		req, want int
	}{
		{Auto, 0, 1}, {Auto, 1, 1}, {Auto, 64, 1},
		{ParallelPRAM, 0, cpus}, {ParallelPRAM, -1, cpus}, {ParallelPRAM, 3, 3},
		{DoublingHash, 0, cpus}, {DoublingSort, 5, 5},
		{Linear, 8, 1}, {Moore, 0, 1}, {Hopcroft, 2, 1},
	} {
		req := Request{Algorithm: w.algo, Workers: w.req}
		plan, err := MakePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		bplan, err := MakeBatchPlan(batch, req)
		if err != nil {
			t.Fatal(err)
		}
		if w.algo == Auto && (plan != autoPlan || bplan != autoPlan) {
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
	for _, algo := range []Algorithm{Moore, Hopcroft, Linear, ParallelPRAM, DoublingHash, DoublingSort} {
		plan, err := MakePlan(Request{Algorithm: algo, Workers: 3})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if plan.Algorithm != algo {
			t.Errorf("explicit %v request resolved to %v", algo, plan.Algorithm)
		}
	}
	explicit, _ := MakePlan(Request{Algorithm: ParallelPRAM, Workers: 64})
	if explicit.Workers != 64 {
		t.Errorf("explicit worker count overridden: %d", explicit.Workers)
	}
}

// TestUnknownAlgorithm: planning and execution both reject values outside
// the dispatch table.
func TestUnknownAlgorithm(t *testing.T) {
	in := coarsest.Instance{F: []int{0}, B: []int{0}}
	if _, err := MakePlan(Request{Algorithm: Algorithm(99)}); err == nil {
		t.Error("MakePlan accepted Algorithm(99)")
	}
	if _, err := MakeBatchPlan([]coarsest.Instance{in}, Request{Algorithm: Algorithm(99)}); err == nil {
		t.Error("MakeBatchPlan accepted Algorithm(99)")
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
