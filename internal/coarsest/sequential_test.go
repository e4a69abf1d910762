package coarsest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperExample22 is Example 2.2 of JáJá & Ryu converted to 0-based
// indexing: A_f[1..16] = [2,4,6,8,10,12,1,3,5,7,9,11,14,15,16,13] and
// A_B[1..16] = [1,2,1,1,2,2,3,3,1,1,3,1,1,2,1,3]; the expected output is
// A_Q[1..16] = [1,2,1,3,2,2,4,4,1,3,4,3,1,2,3,4] (up to renaming).
func paperExample22() (Instance, []int) {
	af := []int{2, 4, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11, 14, 15, 16, 13}
	ab := []int{1, 2, 1, 1, 2, 2, 3, 3, 1, 1, 3, 1, 1, 2, 1, 3}
	aq := []int{1, 2, 1, 3, 2, 2, 4, 4, 1, 3, 4, 3, 1, 2, 3, 4}
	f := make([]int, 16)
	for i, v := range af {
		f[i] = v - 1
	}
	return Instance{F: f, B: ab}, aq
}

func sequentialSolvers() map[string]func(Instance) []int {
	return map[string]func(Instance) []int{
		"moore":    Moore,
		"hopcroft": Hopcroft,
		"linear": func(ins Instance) []int {
			labels, _ := LinearSequentialScratch(ins, nil)
			return labels
		},
	}
}

func TestValidate(t *testing.T) {
	good := Instance{F: []int{1, 0}, B: []int{0, 0}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := []Instance{
		{F: []int{1}, B: []int{0, 0}},
		{F: []int{2, 0}, B: []int{0, 0}},
		{F: []int{-1, 0}, B: []int{0, 0}},
		{F: []int{1, 0}, B: []int{0, -3}},
	}
	for i, ins := range bad {
		if err := ins.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestNormalizeLabels(t *testing.T) {
	got := NormalizeLabels([]int{7, 7, 3, 7, 9, 3})
	want := []int{0, 0, 1, 0, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NormalizeLabels = %v, want %v", got, want)
		}
	}
	if len(NormalizeLabels(nil)) != 0 {
		t.Fatal("empty normalize")
	}
}

func TestSamePartition(t *testing.T) {
	if !SamePartition([]int{0, 1, 0}, []int{5, 2, 5}) {
		t.Error("equivalent partitions rejected")
	}
	if SamePartition([]int{0, 1, 0}, []int{5, 2, 2}) {
		t.Error("different partitions accepted")
	}
	if SamePartition([]int{0, 0, 1}, []int{0, 1, 1}) {
		t.Error("different partitions accepted (reverse map)")
	}
	if SamePartition([]int{0}, []int{0, 1}) {
		t.Error("length mismatch accepted")
	}
}

func TestPaperExample22AllSequential(t *testing.T) {
	ins, aq := paperExample22()
	for name, solve := range sequentialSolvers() {
		got := solve(ins)
		if !SamePartition(got, aq) {
			t.Errorf("%s: labels %v not equivalent to the paper's A_Q %v", name, got, aq)
		}
		if NumClasses(got) != 4 {
			t.Errorf("%s: %d classes, want 4", name, NumClasses(got))
		}
	}
}

func TestPaperExample22SpecificFacts(t *testing.T) {
	// "nodes 1, 3 and 13 will have the same Q-label, and nodes 1 and 4
	// cannot have the same Q-label" (0-based: 0, 2, 12 share; 0 vs 3 differ).
	ins, _ := paperExample22()
	q := Moore(ins)
	if q[0] != q[2] || q[0] != q[12] {
		t.Errorf("nodes 1,3,13 should share a label: got %d,%d,%d", q[0], q[2], q[12])
	}
	if q[0] == q[3] {
		t.Errorf("nodes 1 and 4 must differ: both %d", q[0])
	}
}

func TestSolversAgreeSmallShapes(t *testing.T) {
	cases := []Instance{
		{F: []int{0}, B: []int{0}},
		{F: []int{1, 0}, B: []int{0, 0}},
		{F: []int{1, 0}, B: []int{0, 1}},
		{F: []int{0, 0, 0}, B: []int{0, 1, 1}},
		{F: []int{1, 2, 0, 0, 3}, B: []int{0, 0, 0, 0, 0}},
		{F: []int{1, 2, 0, 0, 3}, B: []int{0, 1, 0, 1, 0}},
		{F: []int{3, 3, 3, 3}, B: []int{1, 1, 1, 0}},
		{F: []int{0, 0, 1, 1, 2, 2, 3, 3}, B: []int{0, 0, 0, 0, 0, 0, 0, 1}},
	}
	for _, ins := range cases {
		want := Moore(ins)
		for name, solve := range sequentialSolvers() {
			got := solve(ins)
			if !SamePartition(got, want) {
				t.Errorf("%s on F=%v B=%v: got %v, want %v", name, ins.F, ins.B, got, want)
			}
		}
	}
}

func randomInstance(rng *rand.Rand, n, blocks int) Instance {
	f := make([]int, n)
	b := make([]int, n)
	for i := range f {
		f[i] = rng.Intn(n)
		b[i] = rng.Intn(blocks)
	}
	return Instance{F: f, B: b}
}

func permutationInstance(rng *rand.Rand, n, blocks int) Instance {
	f := rng.Perm(n)
	b := make([]int, n)
	for i := range b {
		b[i] = rng.Intn(blocks)
	}
	return Instance{F: f, B: b}
}

func TestSolversAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		ins := randomInstance(rng, n, 1+rng.Intn(4))
		want := Moore(ins)
		for name, solve := range sequentialSolvers() {
			if got := solve(ins); !SamePartition(got, want) {
				t.Fatalf("%s on F=%v B=%v: got %v, want %v", name, ins.F, ins.B, got, want)
			}
		}
	}
}

func TestSolversAgreeOnPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(48)
		ins := permutationInstance(rng, n, 1+rng.Intn(3))
		want := Moore(ins)
		for name, solve := range sequentialSolvers() {
			if got := solve(ins); !SamePartition(got, want) {
				t.Fatalf("%s on perm F=%v B=%v: got %v, want %v", name, ins.F, ins.B, got, want)
			}
		}
	}
}

func TestSolversDeepChain(t *testing.T) {
	// Long path into a self loop with alternating labels.
	n := 2000
	f := make([]int, n)
	b := make([]int, n)
	f[0] = 0
	for i := 1; i < n; i++ {
		f[i] = i - 1
		b[i] = i % 2
	}
	ins := Instance{F: f, B: b}
	want := Hopcroft(ins)
	for name, solve := range sequentialSolvers() {
		if got := solve(ins); !SamePartition(got, want) {
			t.Fatalf("%s wrong on deep chain", name)
		}
	}
}

func TestSolversSingleBlockPermutationHasPeriodClasses(t *testing.T) {
	// A single cycle with uniform B collapses to one class.
	n := 12
	f := make([]int, n)
	for i := range f {
		f[i] = (i + 1) % n
	}
	ins := Instance{F: f, B: make([]int, n)}
	for name, solve := range sequentialSolvers() {
		got := solve(ins)
		if NumClasses(got) != 1 {
			t.Errorf("%s: uniform cycle should have 1 class, got %d", name, NumClasses(got))
		}
	}
}

func TestExample31Classes(t *testing.T) {
	// Example 3.1 continues Example 2.2: C0={1,3,9}, C1={2,6,5},
	// C2={4,12,10}, C3={8,11,7}, D0={13}, D1={14}, D2={15}, D3={16}, and
	// Q_i+1 = Ci ∪ Di. Verify with the solvers (0-based).
	ins, _ := paperExample22()
	q := Moore(ins)
	groups := [][]int{
		{1, 3, 9, 13},   // C0 ∪ D0
		{2, 6, 5, 14},   // C1 ∪ D1
		{4, 12, 10, 15}, // C2 ∪ D2
		{8, 11, 7, 16},  // C3 ∪ D3
	}
	for gi, g := range groups {
		for _, node := range g[1:] {
			if q[node-1] != q[g[0]-1] {
				t.Errorf("group %d: node %d label %d != node %d label %d",
					gi, node, q[node-1], g[0], q[g[0]-1])
			}
		}
	}
	for gi := 1; gi < len(groups); gi++ {
		if q[groups[gi][0]-1] == q[groups[0][0]-1] {
			t.Errorf("groups %d and 0 must differ", gi)
		}
	}
}

func TestIsValidCoarsestPartition(t *testing.T) {
	ins, aq := paperExample22()
	if !IsValidCoarsestPartition(ins, aq) {
		t.Error("paper's A_Q rejected")
	}
	// Too fine: all singletons (violates coarsest unless forced).
	fine := make([]int, 16)
	for i := range fine {
		fine[i] = i
	}
	if IsValidCoarsestPartition(ins, fine) {
		t.Error("all-singleton partition accepted as coarsest")
	}
	// Invalid: B not refined.
	bad := make([]int, 16)
	if IsValidCoarsestPartition(ins, bad) {
		t.Error("single-block partition accepted")
	}
}

func TestMooreProperty(t *testing.T) {
	f := func(rawF []uint16, rawB []uint8) bool {
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
		labels := Moore(ins)
		// Check the two structural conditions directly.
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if labels[x] == labels[y] {
					if ins.B[x] != ins.B[y] || labels[ins.F[x]] != labels[ins.F[y]] {
						return false
					}
				}
			}
		}
		// Coarsest: merging any two blocks with equal B and equal f-image
		// labels would contradict Lemma 2.1(i) iterated; rely on
		// cross-checking with Hopcroft for maximality.
		return SamePartition(labels, Hopcroft(ins))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestHopcroftLargeRandomAgainstLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{500, 2000, 5000} {
		ins := randomInstance(rng, n, 3)
		a := Hopcroft(ins)
		b, _ := LinearSequentialScratch(ins, nil)
		if !SamePartition(a, b) {
			t.Fatalf("n=%d: Hopcroft and LinearSequentialScratch disagree", n)
		}
	}
}
