package coarsest

import (
	"math/rand"
	"testing"
)

func TestDoublingBaselinesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		ins := randomInstance(rng, n, 1+rng.Intn(3))
		want := Moore(ins)
		gotHash := DoublingHashPRAM(ins, ParallelOptions{}).Labels
		gotSort := DoublingSortPRAM(ins, ParallelOptions{}).Labels
		if !SamePartition(gotHash, want) {
			t.Fatalf("hash doubling wrong on F=%v B=%v: %v vs %v", ins.F, ins.B, gotHash, want)
		}
		if !SamePartition(gotSort, want) {
			t.Fatalf("sort doubling wrong on F=%v B=%v: %v vs %v", ins.F, ins.B, gotSort, want)
		}
	}
}

func TestDoublingPaperExample(t *testing.T) {
	ins, aq := paperExample22()
	if got := DoublingHashPRAM(ins, ParallelOptions{}); !SamePartition(got.Labels, aq) {
		t.Error("hash doubling fails the paper example")
	}
	if got := DoublingSortPRAM(ins, ParallelOptions{}); !SamePartition(got.Labels, aq) {
		t.Error("sort doubling fails the paper example")
	}
}

func TestDoublingEmpty(t *testing.T) {
	res := DoublingHashPRAM(Instance{F: []int{}, B: []int{}}, ParallelOptions{})
	if len(res.Labels) != 0 {
		t.Fatal("empty doubling")
	}
}

func TestCostOrderingAcrossAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("asymptotic work-ordering sweep; covered by the non-short test run")
	}
	// The paper's Table-of-prior-work claim (intro): JáJá–Ryu work <
	// Galley–Iliopoulos-shape (n log n) < Srikant-shape (n log^2 n) at
	// equal O(log n)-ish time. Verify the measured work ordering on a
	// moderately large random instance.
	rng := rand.New(rand.NewSource(75))
	ins := randomInstance(rng, 1<<12, 3)
	paper := ParallelPRAM(ins, ParallelOptions{})
	gi := DoublingHashPRAM(ins, ParallelOptions{})
	srikant := DoublingSortPRAM(ins, ParallelOptions{})
	if !SamePartition(paper.Labels, gi.Labels) || !SamePartition(paper.Labels, srikant.Labels) {
		t.Fatal("algorithms disagree on labels")
	}
	if srikant.Stats.Work <= gi.Stats.Work {
		t.Errorf("Srikant-shape work %d should exceed GI-shape %d", srikant.Stats.Work, gi.Stats.Work)
	}
}

func TestChoHuynhAgainstMoore(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		ins := randomInstance(rng, n, 1+rng.Intn(3))
		got := ChoHuynhPRAM(ins, ParallelOptions{})
		want := Moore(ins)
		if !SamePartition(got.Labels, want) {
			t.Fatalf("F=%v B=%v: got %v, want %v", ins.F, ins.B, got.Labels, want)
		}
	}
	if got := ChoHuynhPRAM(Instance{F: []int{}, B: []int{}}, ParallelOptions{}); len(got.Labels) != 0 {
		t.Fatal("empty Cho-Huynh")
	}
}

func TestChoHuynhQuadraticWork(t *testing.T) {
	// The point of the baseline: Theta(n^2) operations.
	work := func(n int) int64 {
		rng := rand.New(rand.NewSource(77))
		ins := randomInstance(rng, n, 3)
		return ChoHuynhPRAM(ins, ParallelOptions{}).Stats.Work
	}
	w256, w1024 := work(256), work(1024)
	if ratio := float64(w1024) / float64(w256); ratio < 8 {
		t.Errorf("4x n grew work only %.1fx, want ~16x (quadratic)", ratio)
	}
}
