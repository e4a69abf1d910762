package coarsest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sfcp/internal/workload"
)

type family struct {
	name string
	ins  Instance
}

// families are the four instance families of the request benchmark
// (reqbench/gen.go), built with its generator parameters.
func families(n int) []family {
	conv := func(w workload.Instance) Instance { return Instance{F: w.F, B: w.B} }
	return []family{
		{"random", conv(workload.RandomFunction(1, n, 3))},
		{"perm", conv(workload.RandomPermutation(1, n, 3))},
		{"cycles", conv(workload.DistinctCycles(1, n/256, 256, 3))},
		{"broom", conv(workload.Broom(1, n, 16, 64))},
	}
}

// TestLinearArenaBytes pins the linear solver's memory in bytes, which
// are deterministic: what a warm Scratch retains, and what a warm re-solve
// allocates (the labels plus the strings of new canonical keys).
func TestLinearArenaBytes(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(5))
	identity := Instance{F: make([]int, n), B: make([]int, n)}
	for i := range identity.F {
		identity.F[i] = i
		identity.B[i] = rng.Intn(3)
	}
	distinct := randomInstance(rng, n, 1)
	distinct.B = rng.Perm(n)
	type row struct {
		name     string
		ins      Instance
		maxArena float64
	}
	var rows []row
	for _, fam := range families(n) {
		rows = append(rows, row{fam.name, fam.ins, 64})
	}
	star := workload.Star(1, n, 3)
	rows = append(rows,
		row{"star", Instance{F: star.F, B: star.B}, 80},
		row{"identity", identity, 80},
		row{"distinct-labels", distinct, 80},
	)
	for _, r := range rows {
		var sc Scratch
		LinearSequentialScratch(r.ins, &sc)
		if arena := float64(sc.footprint()) / n; arena > r.maxArena {
			t.Errorf("%s: warm arena %.1f B/elem, want <= %.0f", r.name, arena, r.maxArena)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		LinearSequentialScratch(r.ins, &sc)
		runtime.ReadMemStats(&after)
		if alloc := float64(after.TotalAlloc-before.TotalAlloc) / n; alloc > 12 {
			t.Errorf("%s: warm re-solve allocates %.1f B/elem, want <= 12", r.name, alloc)
		}
	}
}

// crossDepth is F=[0,0,1,0], B=[0,0,1,1] padded with nodes marked onto
// node 0's self-loop. Nodes 2 and 3 are equivalent, one step below the
// marked set, but 2 and 1 steps from the cycle: a coder that took depth
// from the cycle would split them.
func crossDepth(n int) Instance {
	ins := Instance{F: make([]int, n), B: make([]int, n)}
	copy(ins.F, []int{0, 0, 1, 0})
	copy(ins.B, []int{0, 0, 1, 1})
	return ins
}

// TestLinearLabelRich holds the linear solver to Moore's labels, byte for
// byte, where B is wide or label-rich: the rename map for B outside
// [0, n), one label per node, and labels dense in [0, n), on random
// functions, permutations and brooms.
func TestLinearLabelRich(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := []func(n int) Instance{
		func(n int) Instance { return randomInstance(rng, n, 3) },
		func(n int) Instance { return permutationInstance(rng, n, 3) },
		func(n int) Instance {
			w := workload.Broom(rng.Int63(), n, 1+rng.Intn(8), 1+rng.Intn(6))
			return Instance{F: w.F, B: w.B}
		},
	}
	labelings := []struct {
		name  string
		label func(ins Instance)
	}{
		{"wide", func(ins Instance) {
			for i := range ins.B {
				ins.B[i] = rng.Intn(3)<<40 | 1<<62
			}
		}},
		{"distinct", func(ins Instance) { copy(ins.B, rng.Perm(len(ins.B))) }},
		{"dense-random", func(ins Instance) {
			for i := range ins.B {
				ins.B[i] = rng.Intn(len(ins.B))
			}
		}},
		{"shape-labels", func(Instance) {}},
	}
	for _, lab := range labelings {
		for trial := 0; trial < 30; trial++ {
			n := 65 + rng.Intn(3000-65)
			ins := shapes[trial%len(shapes)](n)
			lab.label(ins)
			want := Moore(ins)
			if got, _ := LinearSequentialScratch(ins, nil); !slices.Equal(got, want) {
				t.Fatalf("%s trial %d (n=%d): linear labels differ from Moore's", lab.name, trial, n)
			}
		}
	}
	for _, n := range []int{65, 200, 3000} {
		ins := crossDepth(n)
		want := Moore(ins)
		got, _ := LinearSequentialScratch(ins, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("cross-depth n=%d: linear labels differ from Moore's", n)
		}
		if got[2] != got[3] {
			t.Fatalf("cross-depth n=%d: nodes 2 and 3 split (%d, %d)", n, got[2], got[3])
		}
	}
}

// nextFunction advances f, as an odometer, to the next map from
// [0, len(f)) to itself, and reports false after the last one.
func nextFunction(f []int) bool {
	for i := range f {
		if f[i]++; f[i] < len(f) {
			return true
		}
		f[i] = 0
	}
	return false
}

// nextRGS advances b to the next restricted growth string (b[0] = 0, and
// each b[i] at most one above the largest label before it) and reports
// false after the last one. These strings name every partition of
// len(b) nodes exactly once.
func nextRGS(b []int) bool {
	for i := len(b) - 1; i > 0; i-- {
		if b[i] <= slices.Max(b[:i]) {
			b[i]++
			clear(b[i+1:])
			return true
		}
	}
	return false
}

// TestLinearExhaustiveTiny solves every function on n <= 5 nodes under
// every initial partition B, 166,484 instances, on one reused arena, and
// holds labels and class count to Moore's. Each instance runs twice: with
// B as a restricted growth string, whose labels lie in [0, n) and are
// their own classes, and with B mapped to sparse labels, which the
// solver renames through its B map.
func TestLinearExhaustiveTiny(t *testing.T) {
	var sc Scratch
	solved := 0
	check := func(ins Instance, want []int) {
		got, classes := LinearSequentialScratch(ins, &sc)
		if !slices.Equal(got, want) || classes != NumClasses(want) {
			t.Fatalf("F=%v B=%v: linear gives %v in %d classes, Moore %v", ins.F, ins.B, got, classes, want)
		}
	}
	for n := 1; n <= 5; n++ {
		ins := Instance{F: make([]int, n), B: make([]int, n)}
		sparse := Instance{F: ins.F, B: make([]int, n)}
		for more := true; more; more = nextFunction(ins.F) {
			clear(ins.B)
			for more := true; more; more = nextRGS(ins.B) {
				want := Moore(ins)
				for i, v := range ins.B {
					sparse.B[i] = v*1000 + 7
				}
				check(ins, want)
				check(sparse, want)
				solved++
			}
		}
	}
	if solved != 166484 {
		t.Fatalf("enumerated %d instances, want 166484", solved)
	}
}

// TestLinearSequentialEmpty: the empty instance solves to no labels and
// no classes, on a fresh arena and on one a previous solve left warm.
func TestLinearSequentialEmpty(t *testing.T) {
	var warm Scratch
	LinearSequentialScratch(randomInstance(rand.New(rand.NewSource(1)), 64, 3), &warm)
	for _, sc := range []*Scratch{nil, &warm} {
		got, classes := LinearSequentialScratch(Instance{F: []int{}, B: []int{}}, sc)
		if len(got) != 0 || classes != 0 {
			t.Fatalf("empty instance: labels %v in %d classes", got, classes)
		}
	}
}

func TestCheckSize(t *testing.T) {
	if err := checkSize(math.MaxInt32); err != nil {
		t.Fatalf("n = MaxInt32 rejected: %v", err)
	}
	err := checkSize(math.MaxInt32 + 1)
	if err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("n = MaxInt32+1: got %v, want an error naming the limit", err)
	}
}

// BenchmarkLinear is the linear solver's phase ledger: per family at
// n = 2^20, the whole solve and each of its four steps in ns/elem, and the
// bytes the warm arena retains. Its random-16, perm-16, random-64 and
// perm-64 cases time the whole solve of the tiny instances small requests
// carry, on a warm arena. Run with
//
//	go test -run '^$' -bench Linear -benchtime 5x ./internal/coarsest
func BenchmarkLinear(b *testing.B) {
	const n = 1 << 20
	for _, fam := range families(n) {
		b.Run(fam.name, func(b *testing.B) {
			ins := fam.ins
			var sc Scratch
			out := make([]int, len(ins.F))
			LinearSequentialScratch(ins, &sc)
			var steps [4]time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LinearSequentialScratch(ins, &sc)

				b.StopTimer()
				sc.reset()
				l := newLinear(ins, &sc)
				for s, step := range []func(){l.findCycles, l.canonicalize, l.mark, l.codeUnmarked} {
					t0 := time.Now()
					step()
					steps[s] += time.Since(t0)
				}
				l.finish(out)
				b.StartTimer()
			}
			elems := float64(b.N) * float64(len(ins.F))
			b.ReportMetric(float64(b.Elapsed())/elems, "ns/elem")
			for s, name := range []string{"cycles", "canon", "mark", "pairs"} {
				b.ReportMetric(float64(steps[s])/elems, name+"-ns/elem")
			}
			b.ReportMetric(float64(sc.footprint())/float64(len(ins.F)), "arena-B/elem")
		})
	}
	for _, n := range []int{16, 64} {
		for _, fam := range families(n)[:2] {
			b.Run(fmt.Sprintf("%s-%d", fam.name, n), func(b *testing.B) {
				var sc Scratch
				LinearSequentialScratch(fam.ins, &sc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					LinearSequentialScratch(fam.ins, &sc)
				}
				b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
