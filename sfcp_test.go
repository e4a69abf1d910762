package sfcp

import (
	"math/rand"
	"testing"
)

func paperInstance() (Instance, []int) {
	af := []int{2, 4, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11, 14, 15, 16, 13}
	ab := []int{1, 2, 1, 1, 2, 2, 3, 3, 1, 1, 3, 1, 1, 2, 1, 3}
	aq := []int{1, 2, 1, 3, 2, 2, 4, 4, 1, 3, 4, 3, 1, 2, 3, 4}
	f := make([]int, 16)
	for i, v := range af {
		f[i] = v - 1
	}
	return Instance{F: f, B: ab}, aq
}

func TestSolveDefault(t *testing.T) {
	ins, aq := paperInstance()
	labels, err := Solve(ins.F, ins.B)
	if err != nil {
		t.Fatal(err)
	}
	if !SamePartition(labels, aq) {
		t.Fatalf("Solve = %v, want partition of %v", labels, aq)
	}
}

func TestSolveWithEveryAlgorithm(t *testing.T) {
	ins, aq := paperInstance()
	algos := []Algorithm{
		AlgorithmAuto, AlgorithmMoore, AlgorithmHopcroft, AlgorithmLinear,
		AlgorithmParallelPRAM, AlgorithmDoublingHash, AlgorithmDoublingSort,
	}
	for _, alg := range algos {
		res, err := SolveWith(ins, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !SamePartition(res.Labels, aq) {
			t.Errorf("%v: wrong partition", alg)
		}
		if res.NumClasses != 4 {
			t.Errorf("%v: NumClasses = %d, want 4", alg, res.NumClasses)
		}
		isPRAM := alg == AlgorithmParallelPRAM || alg == AlgorithmDoublingHash || alg == AlgorithmDoublingSort
		if isPRAM && res.Stats == nil {
			t.Errorf("%v: missing PRAM stats", alg)
		}
		if !isPRAM && res.Stats != nil {
			t.Errorf("%v: unexpected stats", alg)
		}
	}
}

func TestSolveWithValidation(t *testing.T) {
	if _, err := SolveWith(Instance{F: []int{5}, B: []int{0}}, Options{}); err == nil {
		t.Error("out-of-range F accepted")
	}
	if _, err := SolveWith(Instance{F: []int{0}, B: []int{0, 1}}, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SolveWith(Instance{F: []int{0}, B: []int{0}}, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgorithmAuto: "auto", AlgorithmMoore: "moore", AlgorithmHopcroft: "hopcroft",
		AlgorithmLinear: "linear", AlgorithmParallelPRAM: "parallel-pram",
		AlgorithmDoublingHash: "doubling-hash", AlgorithmDoublingSort: "doubling-sort",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestMinimalRotation(t *testing.T) {
	if got := MinimalRotation([]int{3, 1, 2}); got != 1 {
		t.Errorf("MinimalRotation = %d, want 1", got)
	}
	if got := MinimalRotation(nil); got != -1 {
		t.Errorf("MinimalRotation(nil) = %d, want -1", got)
	}
	idx, stats := MinimalRotationPRAM([]int{3, 1, 2, 3, 1, 1})
	if idx != 4 {
		t.Errorf("MinimalRotationPRAM = %d, want 4", idx)
	}
	if stats.Work == 0 {
		t.Error("MinimalRotationPRAM reported no work")
	}
}

func TestCanonicalRotationAndPeriod(t *testing.T) {
	got := CanonicalRotation([]int{2, 3, 1})
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CanonicalRotation = %v", got)
		}
	}
	if p := SmallestRepeatingPrefix([]int{1, 2, 1, 2}); p != 2 {
		t.Errorf("period = %d, want 2", p)
	}
	if !IsRotationOf([]int{1, 2, 3}, []int{2, 3, 1}) {
		t.Error("IsRotationOf failed")
	}
}

func TestSortStringsFacade(t *testing.T) {
	strs := [][]int{{2, 1}, {1}, {1, 0}}
	want := []int{1, 2, 0}
	got := SortStrings(strs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortStrings = %v, want %v", got, want)
		}
	}
	gotP, stats := SortStringsPRAM(strs)
	for i := range want {
		if gotP[i] != want[i] {
			t.Fatalf("SortStringsPRAM = %v, want %v", gotP, want)
		}
	}
	if stats.Rounds == 0 {
		t.Error("SortStringsPRAM reported no rounds")
	}
}

func TestSolversAgreeRandomFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(80)
		f := make([]int, n)
		b := make([]int, n)
		for i := range f {
			f[i] = rng.Intn(n)
			b[i] = rng.Intn(3)
		}
		ins := Instance{F: f, B: b}
		ref, err := SolveWith(ins, Options{Algorithm: AlgorithmMoore})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{AlgorithmLinear, AlgorithmParallelPRAM} {
			res, err := SolveWith(ins, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if !SamePartition(res.Labels, ref.Labels) {
				t.Fatalf("%v disagrees with moore on n=%d", alg, n)
			}
		}
	}
}
