package coarsest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sfcp/internal/circ"
	"sfcp/internal/intsort"
	"sfcp/internal/listrank"
)

func solvePRAM(ins Instance) []int {
	return ParallelPRAM(ins, ParallelOptions{}).Labels
}

func TestParallelPaperExample22(t *testing.T) {
	ins, aq := paperExample22()
	res := ParallelPRAM(ins, ParallelOptions{})
	if !SamePartition(res.Labels, aq) {
		t.Fatalf("labels %v not equivalent to the paper's A_Q %v", res.Labels, aq)
	}
	if res.NumClasses != 4 {
		t.Fatalf("NumClasses = %d, want 4", res.NumClasses)
	}
}

func TestParallelEmptyAndTiny(t *testing.T) {
	if got := solvePRAM(Instance{F: []int{}, B: []int{}}); len(got) != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := solvePRAM(Instance{F: []int{0}, B: []int{7}}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("singleton = %v", got)
	}
	got := solvePRAM(Instance{F: []int{1, 0}, B: []int{3, 3}})
	want := Moore(Instance{F: []int{1, 0}, B: []int{3, 3}})
	if !SamePartition(got, want) {
		t.Fatalf("2-cycle: got %v want %v", got, want)
	}
}

func TestParallelSmallShapes(t *testing.T) {
	cases := []Instance{
		{F: []int{0}, B: []int{0}},
		{F: []int{1, 0}, B: []int{0, 1}},
		{F: []int{0, 0, 0}, B: []int{0, 1, 1}},
		{F: []int{1, 2, 0, 0, 3}, B: []int{0, 1, 0, 1, 0}},
		{F: []int{3, 3, 3, 3}, B: []int{1, 1, 1, 0}},
		{F: []int{1, 2, 3, 0, 5, 6, 7, 4}, B: []int{0, 1, 0, 1, 0, 1, 0, 1}}, // two equivalent 4-cycles
		{F: []int{1, 2, 3, 0, 5, 6, 7, 4}, B: []int{0, 1, 0, 1, 1, 0, 1, 0}}, // shifted labels
		{F: []int{0, 0, 1, 1, 2, 2, 3, 3}, B: []int{0, 0, 0, 0, 0, 0, 0, 1}}, // deep tree
		{F: []int{2, 2, 3, 2}, B: []int{1, 1, 0, 1}},
	}
	for _, ins := range cases {
		want := Moore(ins)
		got := solvePRAM(ins)
		if !SamePartition(got, want) {
			t.Errorf("F=%v B=%v: got %v, want %v", ins.F, ins.B, got, want)
		}
	}
}

func TestParallelRandomAgainstMoore(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		ins := randomInstance(rng, n, 1+rng.Intn(4))
		want := Moore(ins)
		got := solvePRAM(ins)
		if !SamePartition(got, want) {
			t.Fatalf("F=%v B=%v: got %v, want %v", ins.F, ins.B, got, want)
		}
	}
}

func TestParallelPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		ins := permutationInstance(rng, n, 1+rng.Intn(3))
		want := Moore(ins)
		got := solvePRAM(ins)
		if !SamePartition(got, want) {
			t.Fatalf("perm F=%v B=%v: got %v, want %v", ins.F, ins.B, got, want)
		}
	}
}

func TestParallelAllOptionCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ins := randomInstance(rng, 60, 3)
	want := Moore(ins)
	for _, sort := range []intsort.Strategy{intsort.Modeled, intsort.BitSplit} {
		for _, rank := range []listrank.Method{listrank.Wyllie, listrank.RulingSet} {
			for _, pad := range []circ.Pad{circ.PadMin, circ.PadBlank} {
				got := ParallelPRAM(ins, ParallelOptions{Sort: sort, Rank: rank, Pad: pad}).Labels
				if !SamePartition(got, want) {
					t.Errorf("sort=%v rank=%v pad=%v: wrong partition", sort, rank, pad)
				}
			}
		}
	}
}

func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ins := randomInstance(rng, 80, 3)
	base := ParallelPRAM(ins, ParallelOptions{Workers: 1}).Labels
	for _, w := range []int{2, 4, 8} {
		got := ParallelPRAM(ins, ParallelOptions{Workers: w}).Labels
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: nondeterministic labels", w)
			}
		}
	}
}

func TestParallelSeedInvariance(t *testing.T) {
	// Different Arbitrary-CRCW winners must not change the partition.
	rng := rand.New(rand.NewSource(65))
	ins := randomInstance(rng, 70, 3)
	want := Moore(ins)
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		got := ParallelPRAM(ins, ParallelOptions{Seed: seed}).Labels
		if !SamePartition(got, want) {
			t.Fatalf("seed=%d: wrong partition", seed)
		}
	}
}

func TestParallelPureCycleFamilies(t *testing.T) {
	// k cycles of length l with periodic labels: stresses period
	// reduction, m.s.p. alignment and cycle equivalence.
	for _, tc := range []struct{ k, l, period int }{
		{1, 12, 4}, {3, 12, 4}, {4, 6, 3}, {2, 16, 16}, {5, 1, 1}, {2, 2, 1},
	} {
		n := tc.k * tc.l
		f := make([]int, n)
		b := make([]int, n)
		pattern := []int{1, 2, 1, 3, 2, 2, 3, 1, 1, 2, 3, 3, 1, 3, 2, 1}
		for c := 0; c < tc.k; c++ {
			for i := 0; i < tc.l; i++ {
				idx := c*tc.l + i
				f[idx] = c*tc.l + (i+1)%tc.l
				b[idx] = pattern[(i+c)%tc.period] // shifted per cycle
			}
		}
		ins := Instance{F: f, B: b}
		want := Moore(ins)
		got := solvePRAM(ins)
		if !SamePartition(got, want) {
			t.Fatalf("k=%d l=%d period=%d: got %v, want %v", tc.k, tc.l, tc.period, got, want)
		}
	}
}

func TestParallelDeepTrees(t *testing.T) {
	// Long chains into a small cycle, with both matching and mismatching
	// label patterns (exercises marked/unmarked paths of Section 4).
	n := 600
	f := make([]int, n)
	b := make([]int, n)
	// Cycle 0-1-2 with labels 0,1,2; chain from n-1 down to 3 attaching at 0.
	f[0], f[1], f[2] = 1, 2, 0
	b[0], b[1], b[2] = 0, 1, 2
	for i := 3; i < n; i++ {
		f[i] = i - 1
		b[i] = (i - 3) % 3 // partially matching the cycle pattern
	}
	ins := Instance{F: f, B: b}
	want := Hopcroft(ins)
	got := solvePRAM(ins)
	if !SamePartition(got, want) {
		t.Fatalf("deep tree: partitions differ (%d vs %d classes)",
			NumClasses(got), NumClasses(want))
	}
}

func TestParallelStarForest(t *testing.T) {
	// Many leaves into one self-loop: wide flat trees.
	n := 300
	f := make([]int, n)
	b := make([]int, n)
	for i := 1; i < n; i++ {
		b[i] = i % 4
	}
	ins := Instance{F: f, B: b}
	want := Moore(ins)
	got := solvePRAM(ins)
	if !SamePartition(got, want) {
		t.Fatal("star forest: partitions differ")
	}
}

func TestParallelProperty(t *testing.T) {
	prop := func(rawF []uint16, rawB []uint8, seed uint16) bool {
		n := len(rawF)
		if n == 0 {
			return true
		}
		ins := Instance{F: make([]int, n), B: make([]int, n)}
		for i := range rawF {
			ins.F[i] = int(rawF[i]) % n
			if i < len(rawB) {
				ins.B[i] = int(rawB[i] % 3)
			}
		}
		got := ParallelPRAM(ins, ParallelOptions{Seed: uint64(seed) + 1}).Labels
		return SamePartition(got, Moore(ins))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMediumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, n := range []int{200, 500, 1500} {
		ins := randomInstance(rng, n, 3)
		want, _ := LinearSequentialScratch(ins, nil)
		got := solvePRAM(ins)
		if !SamePartition(got, want) {
			t.Fatalf("n=%d: parallel and linear disagree", n)
		}
	}
}

func TestParallelStatsReported(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	ins := randomInstance(rng, 256, 3)
	res := ParallelPRAM(ins, ParallelOptions{})
	if res.Stats.Rounds == 0 || res.Stats.Work == 0 {
		t.Fatalf("stats not collected: %+v", res.Stats)
	}
	if res.Stats.Work < int64(256) {
		t.Fatalf("work %d implausibly low", res.Stats.Work)
	}
}
