package strsort

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sfcp/internal/intsort"
	"sfcp/internal/pram"
)

func newMachine() *pram.Machine { return pram.New(pram.ArbitraryCRCW) }

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{nil, nil, 0},
		{nil, []int{1}, -1},
		{[]int{1}, nil, 1},
		{[]int{1, 2}, []int{1, 2}, 0},
		{[]int{1, 2}, []int{1, 3}, -1},
		{[]int{2}, []int{1, 9}, 1},
		{[]int{1, 2}, []int{1, 2, 0}, -1},
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func checkSorted(t *testing.T, strs [][]int, perm []int, stable bool) {
	t.Helper()
	if len(perm) != len(strs) {
		t.Fatalf("perm length %d, want %d", len(perm), len(strs))
	}
	seen := make([]bool, len(strs))
	for _, p := range perm {
		if p < 0 || p >= len(strs) || seen[p] {
			t.Fatalf("perm %v is not a permutation", perm)
		}
		seen[p] = true
	}
	for i := 1; i < len(perm); i++ {
		cmp := Compare(strs[perm[i-1]], strs[perm[i]])
		if cmp > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, strs[perm[i-1]], strs[perm[i]])
		}
		if stable && cmp == 0 && perm[i-1] > perm[i] {
			t.Fatalf("not stable at %d: %d before %d", i, perm[i-1], perm[i])
		}
	}
}

func randomStrings(rng *rand.Rand, k, maxLen, sigma int) [][]int {
	strs := make([][]int, k)
	for i := range strs {
		l := rng.Intn(maxLen + 1)
		s := make([]int, l)
		for j := range s {
			s[j] = rng.Intn(sigma)
		}
		strs[i] = s
	}
	return strs
}

func TestHostSort(t *testing.T) {
	strs := [][]int{{2, 1}, {1}, {2}, {1, 0}, {}, {1}}
	perm := HostSort(strs)
	checkSorted(t, strs, perm, true)
	// Expected order: {}, {1}#1, {1}#5, {1,0}, {2}, {2,1}.
	want := []int{4, 1, 5, 3, 2, 0}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestSortPRAMSmall(t *testing.T) {
	cases := [][][]int{
		{},
		{{}},
		{{1}},
		{{}, {}},
		{{2}, {1}},
		{{1, 2, 3}, {1, 2}, {1}},
		{{0, 0}, {0}, {0, 0, 0}},
		{{5, 4}, {5, 4}, {5, 3}},
	}
	for _, strs := range cases {
		m := newMachine()
		perm := SortPRAM(m, strs, Options{})
		checkSorted(t, strs, perm, true)
	}
}

func TestSortPRAMRandomAgainstHost(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		k := 1 + rng.Intn(30)
		strs := randomStrings(rng, k, 12, 3)
		m := newMachine()
		perm := SortPRAM(m, strs, Options{})
		want := HostSort(strs)
		for i := range want {
			if perm[i] != want[i] {
				t.Fatalf("strs=%v: perm=%v want=%v", strs, perm, want)
			}
		}
	}
}

func TestSortPRAMAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	strs := randomStrings(rng, 40, 20, 4)
	want := HostSort(strs)
	for _, strat := range []intsort.Strategy{intsort.Modeled, intsort.BitSplit, intsort.Grouped} {
		m := newMachine()
		perm := SortPRAM(m, strs, Options{Sort: strat})
		for i := range want {
			if perm[i] != want[i] {
				t.Fatalf("strategy %v: wrong order", strat)
			}
		}
	}
}

func TestSortPRAMLongStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	strs := [][]int{}
	// A few very long strings sharing long prefixes.
	base := make([]int, 2000)
	for i := range base {
		base[i] = rng.Intn(2)
	}
	for trial := 0; trial < 6; trial++ {
		s := make([]int, len(base))
		copy(s, base)
		if trial > 0 {
			s[1500+trial*17] ^= 1
		}
		strs = append(strs, s)
	}
	m := newMachine()
	perm := SortPRAM(m, strs, Options{})
	checkSorted(t, strs, perm, true)
}

func TestSortPRAMSingleLongString(t *testing.T) {
	s := make([]int, 777)
	for i := range s {
		s[i] = i % 7
	}
	m := newMachine()
	perm := SortPRAM(m, [][]int{s}, Options{})
	if len(perm) != 1 || perm[0] != 0 {
		t.Fatalf("perm = %v", perm)
	}
}

func TestSortPRAMProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		strs := make([][]int, len(raw))
		for i, r := range raw {
			s := make([]int, len(r))
			for j, v := range r {
				s[j] = int(v % 8)
			}
			strs[i] = s
		}
		m := newMachine()
		perm := SortPRAM(m, strs, Options{})
		want := HostSort(strs)
		for i := range want {
			if perm[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBatcherComparePRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(25)
		strs := randomStrings(rng, k, 10, 3)
		m := newMachine()
		perm := BatcherComparePRAM(m, strs)
		want := HostSort(strs)
		for i := range want {
			if perm[i] != want[i] {
				t.Fatalf("strs=%v: perm=%v want=%v", strs, perm, want)
			}
		}
	}
}

func TestBatcherEmpty(t *testing.T) {
	m := newMachine()
	if got := BatcherComparePRAM(m, nil); got != nil {
		t.Fatalf("empty batcher = %v", got)
	}
}

func TestSortPRAMWorkGrowsSlowerThanBatcher(t *testing.T) {
	// The paper's algorithm is O(n log log n) work; the comparison network
	// pays O(log^2 m) stages with real symbol inspections. Compare growth
	// over a 8x size increase.
	rng := rand.New(rand.NewSource(25))
	measure := func(k int) (int64, int64) {
		strs := randomStrings(rng, k, 16, 3)
		for i := range strs {
			if len(strs[i]) == 0 {
				strs[i] = []int{1}
			}
		}
		m1 := newMachine()
		m1.ResetStats()
		SortPRAM(m1, strs, Options{})
		m2 := newMachine()
		m2.ResetStats()
		BatcherComparePRAM(m2, strs)
		return m1.Stats().Work, m2.Stats().Work
	}
	ours512, batcher512 := measure(512)
	ours4k, batcher4k := measure(4096)
	ratioOurs := float64(ours4k) / float64(ours512)
	ratioBatcher := float64(batcher4k) / float64(batcher512)
	if ratioOurs >= ratioBatcher {
		t.Errorf("paper-sort growth %.2f should be below Batcher growth %.2f", ratioOurs, ratioBatcher)
	}
}

func TestSortPRAMLogarithmicRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	strs := randomStrings(rng, 2000, 12, 4)
	m := newMachine()
	m.ResetStats()
	SortPRAM(m, strs, Options{})
	// Note: the simulator's prefix sums are plain O(log n)-round trees, so
	// the measured total is O(log n * log log n) rounds, a log log factor
	// above the paper's bound (which assumes O(log n / log log n)-time CRCW
	// prefix sums). See E4 in internal/bench (`sfcpbench -exp E4`) and
	// DESIGN.md section 5. This test only excludes gross
	// (polynomial) blowups.
	if r := m.Stats().Rounds; r > 1500 {
		t.Errorf("SortPRAM rounds = %d, want polylogarithmic", r)
	}
}
