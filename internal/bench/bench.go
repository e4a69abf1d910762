// Package bench holds every experiment `sfcpbench -list` names. The paper
// has no empirical section, so the "tables and figures" to reproduce are
// its stated complexity bounds, comparisons with prior algorithms, and
// worked examples; each experiment turns one claim into a measured table.
//
//sfcpvet:ignore-file enginedispatch -- the experiments compare raw solver entry points against each other; routing them through the engine would measure the planner instead of the algorithms
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"sfcp"
	"sfcp/internal/circ"
	"sfcp/internal/coarsest"
	"sfcp/internal/intsort"
	"sfcp/internal/listrank"
	"sfcp/internal/partition"
	"sfcp/internal/pool"
	"sfcp/internal/pram"
	"sfcp/internal/strsort"
	"sfcp/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the table (default os.Stdout set by the caller).
	Out io.Writer
	// Quick shrinks the sweeps for CI-speed runs.
	Quick bool
	// Seed of all workloads.
	Seed int64
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config)
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Theorem 5.1: parallel time O(log n)", E1Time},
		{"E2", "Theorem 5.1: work O(n log log n)", E2Work},
		{"E3", "Lemma 3.7: m.s.p. algorithms", E3MSP},
		{"E4", "Lemma 3.8: string sorting", E4StringSort},
		{"E5", "Lemma 3.11: cycle partitioning", E5CyclePartition},
		{"E6", "Lemma 4.3: tree labeling", E6TreeLabel},
		{"E7", "Intro: comparison with prior algorithms", E7Comparison},
		{"E9", "Fig. 1 and worked examples", E9PaperExamples},
		{"E10", "Remark 3.2: BB table memory", E10BBMemory},
		{"A1", "Ablation: integer sorting strategies", A1IntSort},
		{"A2", "Ablation: list ranking methods", A2ListRank},
		{"A3", "Ablation: m.s.p. recursion cutoff", A3Cutoff},
		{"A5", "Coalescing front door: micro-batched vs per-request small solves (JSON)", A5Coalescing},
		{"A7", "Tiered storage: blob spill/read throughput and cold-start recovery (JSON)", A7TieredStorage},
		{"A8", "Incremental re-solve: delta-apply latency vs a fresh session and a full re-solve (JSON)", A8IncrementalResolve},
	}
}

// HostFingerprint identifies the hardware a JSON experiment ran on, so
// checked-in BENCH files are attributable.
type HostFingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// CPUModel is the "model name" line of /proc/cpuinfo when readable,
	// empty elsewhere (the field is best-effort by design).
	CPUModel string `json:"cpu_model,omitempty"`
}

// Fingerprint captures the current host.
func Fingerprint() HostFingerprint {
	return HostFingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel extracts the first "model name" value from /proc/cpuinfo,
// once per process: the model cannot change under a running process.
// Any failure (non-Linux, restricted /proc) yields "".
var cpuModel = sync.OnceValue(func() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
})

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func lglg(n int) float64 {
	lg := math.Log2(float64(n))
	if lg < 2 {
		return 1
	}
	return math.Log2(lg)
}

func sizes(cfg Config, full, quick []int) []int {
	if cfg.Quick {
		return quick
	}
	return full
}

func newTable(cfg Config) *tabwriter.Writer {
	return tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', tabwriter.AlignRight)
}

// E1Time measures the parallel rounds of the full solver: Theorem 5.1
// claims O(log n) time, so rounds/log2(n) should flatten. The simulator's
// prefix sums are plain O(log n)-round trees (the paper assumes the
// accelerated O(log n / log log n) CRCW scans), so the honest expectation
// is a flat-to-mildly-drifting rounds/(log n * log log n) column.
func E1Time(cfg Config) {
	fmt.Fprintln(cfg.Out, "E1: ParallelPRAM rounds vs n (random function and permutation workloads)")
	w := newTable(cfg)
	fmt.Fprintln(w, "n\trounds(rand)\tr/log n\tr/(log n·loglog n)\trounds(perm)\tr/log n\t")
	for _, n := range sizes(cfg, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
		lg := math.Log2(float64(n))
		rand := workload.RandomFunction(cfg.Seed, n, 3)
		rr := coarsest.ParallelPRAM(coarsest.Instance{F: rand.F, B: rand.B}, coarsest.ParallelOptions{}).Stats.Rounds
		// Permutations (cycle-heavy) are capped a size lower: their
		// batched m.s.p. phase is the host-slowest part of the simulator.
		pr := int64(-1)
		if n <= 1<<14 {
			perm := workload.RandomPermutation(cfg.Seed+1, n, 3)
			pr = coarsest.ParallelPRAM(coarsest.Instance{F: perm.F, B: perm.B}, coarsest.ParallelOptions{}).Stats.Rounds
		}
		if pr >= 0 {
			fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\t%d\t%.1f\t\n",
				n, rr, float64(rr)/lg, float64(rr)/(lg*lglg(n)), pr, float64(pr)/lg)
		} else {
			fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\t-\t-\t\n",
				n, rr, float64(rr)/lg, float64(rr)/(lg*lglg(n)))
		}
	}
	w.Flush()
}

// E2Work measures total operations: Theorem 5.1 claims O(n log log n), so
// work/(n log log n) should flatten while work/n drifts up only as log log.
func E2Work(cfg Config) {
	fmt.Fprintln(cfg.Out, "E2: ParallelPRAM work vs n (modeled Bhatt sorting; see DESIGN.md)")
	w := newTable(cfg)
	fmt.Fprintln(w, "n\twork(rand)\tw/n\tw/(n·loglog n)\twork(perm)\tw/(n·loglog n)\t")
	for _, n := range sizes(cfg, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
		rand := workload.RandomFunction(cfg.Seed, n, 3)
		rw := coarsest.ParallelPRAM(coarsest.Instance{F: rand.F, B: rand.B}, coarsest.ParallelOptions{}).Stats.Work
		fn := float64(n)
		if n <= 1<<14 {
			perm := workload.RandomPermutation(cfg.Seed+1, n, 3)
			pw := coarsest.ParallelPRAM(coarsest.Instance{F: perm.F, B: perm.B}, coarsest.ParallelOptions{}).Stats.Work
			fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\t%d\t%.1f\t\n",
				n, rw, float64(rw)/fn, float64(rw)/(fn*lglg(n)), pw, float64(pw)/(fn*lglg(n)))
		} else {
			fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\t-\t-\t\n",
				n, rw, float64(rw)/fn, float64(rw)/(fn*lglg(n)))
		}
	}
	w.Flush()
}

// E3MSP compares the m.s.p. algorithms: efficient (Lemma 3.7,
// O(n log log n) work) against simple (O(n log n) work) and the sequential
// linear-time algorithms. The work ratio simple/efficient must grow like
// log n / log log n.
func E3MSP(cfg Config) {
	fmt.Fprintln(cfg.Out, "E3: minimal starting point of a circular string")
	w := newTable(cfg)
	fmt.Fprintln(w, "n\tsimple work\ts/(n·log n)\tefficient work\te/(n·loglog n)\tratio s/e\tseq Booth\t")
	for _, n := range sizes(cfg, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
		s := workload.CircularString(cfg.Seed+int64(n), n, 4)
		if circ.SmallestRepeatingPrefix(s) != n {
			s[0]++ // force primitivity
		}
		mS := pram.New(pram.ArbitraryCRCW)
		cS := mS.NewArrayFromInts(s)
		mS.ResetStats()
		idxS := circ.SimpleMSPPRAM(mS, cS)
		workS := mS.Stats().Work

		mE := pram.New(pram.ArbitraryCRCW)
		cE := mE.NewArrayFromInts(s)
		mE.ResetStats()
		idxE := circ.EfficientMSPPRAM(mE, cE, circ.Options{})
		workE := mE.Stats().Work

		t0 := time.Now()
		idxB := circ.BoothMSP(s)
		seq := time.Since(t0)
		if idxS != idxB || idxE != idxB {
			fmt.Fprintf(w, "%d\tDISAGREE(%d/%d/%d)\t\t\t\t\t\t\n", n, idxS, idxE, idxB)
			continue
		}
		fn := float64(n)
		lg := math.Log2(fn)
		fmt.Fprintf(w, "%d\t%d\t%.2f\t%d\t%.2f\t%.2f\t%v\t\n",
			n, workS, float64(workS)/(fn*lg), workE, float64(workE)/(fn*lglg(n)),
			float64(workS)/float64(workE), seq.Round(time.Microsecond))
	}
	w.Flush()
}

// E4StringSort compares Algorithm sorting strings (Lemma 3.8) against the
// comparison-network baseline.
func E4StringSort(cfg Config) {
	fmt.Fprintln(cfg.Out, "E4: sorting variable-length strings (total symbols = n)")
	w := newTable(cfg)
	fmt.Fprintln(w, "n\tm\tpaper work\tw/(n·loglog n)\tpaper rounds\tbatcher work\tbatcher rounds\tratio b/p\t")
	for _, n := range sizes(cfg, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}) {
		m := n / 16
		strs := workload.StringList(cfg.Seed+int64(n), m, n, 5)

		m1 := pram.New(pram.ArbitraryCRCW)
		m1.ResetStats()
		p1 := strsort.SortPRAM(m1, strs, strsort.Options{})
		s1 := m1.Stats()

		m2 := pram.New(pram.ArbitraryCRCW)
		m2.ResetStats()
		p2 := strsort.BatcherComparePRAM(m2, strs)
		s2 := m2.Stats()

		agree := len(p1) == len(p2)
		for i := range p1 {
			if !agree || p1[i] != p2[i] {
				agree = false
				break
			}
		}
		if !agree {
			fmt.Fprintf(w, "%d\t%d\tDISAGREE\t\t\t\t\t\t\n", n, m)
			continue
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\t%d\t%d\t%d\t%.2f\t\n",
			n, m, s1.Work, float64(s1.Work)/(float64(n)*lglg(n)), s1.Rounds,
			s2.Work, s2.Rounds, float64(s2.Work)/float64(s1.Work))
	}
	w.Flush()
}

// E5CyclePartition fixes n and sweeps the cycle count k: Algorithm
// partition does O(n) work while the trivial all-pairs method does
// O(nk + k^2), so the ratio must grow linearly in k (Lemma 3.11).
func E5CyclePartition(cfg Config) {
	n := 1 << 14
	if cfg.Quick {
		n = 1 << 11
	}
	fmt.Fprintf(cfg.Out, "E5: partitioning k cycles into equivalence classes (n = %d fixed)\n", n)
	w := newTable(cfg)
	fmt.Fprintln(w, "k\tl\tpairing work\tallpairs work\tratio\tpairing rounds\tallpairs rounds\t")
	for _, k := range sizes(cfg, []int{16, 64, 256, 1024, 4096}, []int{16, 64, 256}) {
		l := n / k
		ins := workload.DistinctCycles(cfg.Seed, k, l, 3)
		flat := make([]int, 0, k*l)
		// Rows are the B-strings of the generated cycles (consecutive).
		flat = append(flat, ins.B...)

		m1 := pram.New(pram.ArbitraryCRCW)
		a1 := m1.NewArrayFromInts(flat)
		m1.ResetStats()
		c1, n1 := partition.PairingPRAM(m1, a1, k, l, intsort.Modeled)
		s1 := m1.Stats()

		m2 := pram.New(pram.ArbitraryCRCW)
		a2 := m2.NewArrayFromInts(flat)
		m2.ResetStats()
		c2, n2 := partition.AllPairsPRAM(m2, a2, k, l, intsort.Modeled)
		s2 := m2.Stats()

		if n1 != n2 || !coarsest.SamePartition(c1.Ints(), c2.Ints()) {
			fmt.Fprintf(w, "%d\t%d\tDISAGREE\t\t\t\t\t\n", k, l)
			continue
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.2f\t%d\t%d\t\n",
			k, l, s1.Work, s2.Work, float64(s2.Work)/float64(s1.Work), s1.Rounds, s2.Rounds)
	}
	w.Flush()
}

// E6TreeLabel exercises Section 4 over forest shapes from shallow-wide to
// deep-narrow: rounds must stay logarithmic-ish and work near-linear in n
// (Lemma 4.3; our Step-5 coding pays an extra log(depth) factor over
// Kedem–Palem, which the depth sweep makes visible).
func E6TreeLabel(cfg Config) {
	n := 1 << 14
	if cfg.Quick {
		n = 1 << 11
	}
	fmt.Fprintf(cfg.Out, "E6: tree labeling across forest shapes (n = %d)\n", n)
	w := newTable(cfg)
	fmt.Fprintln(w, "shape\tmax depth\trounds\twork\twork/n\t")
	shapes := []struct {
		name string
		ins  workload.Instance
	}{
		{"star (depth 1)", workload.Star(cfg.Seed, n, 3)},
		{"random function", workload.RandomFunction(cfg.Seed, n, 3)},
		{"broom x64", workload.Broom(cfg.Seed, n, 16, 64)},
		{"broom x4", workload.Broom(cfg.Seed, n, 16, 4)},
		{"single chain", workload.Broom(cfg.Seed, n, 4, 1)},
	}
	for _, sh := range shapes {
		ins := coarsest.Instance{F: sh.ins.F, B: sh.ins.B}
		res := coarsest.ParallelPRAM(ins, coarsest.ParallelOptions{})
		if !coarsest.SamePartition(res.Labels, coarsest.Hopcroft(ins)) {
			fmt.Fprintf(w, "%s\tWRONG RESULT\t\t\t\t\n", sh.name)
			continue
		}
		depth := maxTreeDepth(ins)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t\n",
			sh.name, depth, res.Stats.Rounds, res.Stats.Work, float64(res.Stats.Work)/float64(n))
	}
	w.Flush()
}

func maxTreeDepth(ins coarsest.Instance) int {
	labels := coarsest.LinearSequential(ins) // ensures instance is sane
	_ = labels
	n := len(ins.F)
	// Sequential level computation (same as linear solver).
	onCycle := make([]bool, n)
	state := make([]int8, n)
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		var path []int
		x := s
		for state[x] == 0 {
			state[x] = 1
			path = append(path, x)
			x = ins.F[x]
		}
		if state[x] == 1 {
			for i := len(path) - 1; i >= 0; i-- {
				onCycle[path[i]] = true
				if path[i] == x {
					break
				}
			}
		}
		for _, y := range path {
			state[y] = 2
		}
	}
	depth := make([]int, n)
	maxD := 0
	var stack []int
	for s := 0; s < n; s++ {
		x := s
		stack = stack[:0]
		for !onCycle[x] && depth[x] == 0 {
			stack = append(stack, x)
			x = ins.F[x]
		}
		d := depth[x]
		for i := len(stack) - 1; i >= 0; i-- {
			d++
			depth[stack[i]] = d
			if d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// E7Comparison reproduces the paper's prior-work comparison: at matching
// O(log n)-scale time, the paper's algorithm must do asymptotically less
// work than the Galley–Iliopoulos-shape (n log n) and Srikant-shape
// (n log^2 n) baselines, with sequential algorithms as the work floor.
func E7Comparison(cfg Config) {
	fmt.Fprintln(cfg.Out, "E7: algorithm comparison (random functions)")
	w := newTable(cfg)
	fmt.Fprintln(w, "n\tpaper work\tGI-shape work\tSrikant-shape work\tGI/paper\tSrikant/paper\tpaper rounds\tGI rounds\tSrikant rounds\t")
	for _, n := range sizes(cfg, []int{1 << 10, 1 << 12, 1 << 14}, []int{1 << 10, 1 << 12}) {
		wl := workload.RandomFunction(cfg.Seed, n, 3)
		ins := coarsest.Instance{F: wl.F, B: wl.B}
		paper := coarsest.ParallelPRAM(ins, coarsest.ParallelOptions{})
		gi := coarsest.DoublingHashPRAM(ins, coarsest.ParallelOptions{})
		sk := coarsest.DoublingSortPRAM(ins, coarsest.ParallelOptions{})
		if !coarsest.SamePartition(paper.Labels, gi.Labels) || !coarsest.SamePartition(paper.Labels, sk.Labels) {
			fmt.Fprintf(w, "%d\tDISAGREE\t\t\t\t\t\t\t\t\n", n)
			continue
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.2f\t%.2f\t%d\t%d\t%d\t\n",
			n, paper.Stats.Work, gi.Stats.Work, sk.Stats.Work,
			float64(gi.Stats.Work)/float64(paper.Stats.Work),
			float64(sk.Stats.Work)/float64(paper.Stats.Work),
			paper.Stats.Rounds, gi.Stats.Rounds, sk.Stats.Rounds)
	}
	w.Flush()

	// The quadratic Cho–Huynh baseline only fits small n.
	fmt.Fprintln(cfg.Out, "Cho–Huynh (O(n^2) ops) baseline, small n:")
	w2 := newTable(cfg)
	fmt.Fprintln(w2, "n\tCho-Huynh work\tpaper work\tCH/paper\t")
	for _, n := range sizes(cfg, []int{256, 512, 1024, 2048}, []int{256, 512}) {
		wl := workload.RandomFunction(cfg.Seed, n, 3)
		ins := coarsest.Instance{F: wl.F, B: wl.B}
		ch := coarsest.ChoHuynhPRAM(ins, coarsest.ParallelOptions{})
		paper := coarsest.ParallelPRAM(ins, coarsest.ParallelOptions{})
		if !coarsest.SamePartition(ch.Labels, paper.Labels) {
			fmt.Fprintf(w2, "%d\tDISAGREE\t\t\t\n", n)
			continue
		}
		fmt.Fprintf(w2, "%d\t%d\t%d\t%.2f\t\n", n, ch.Stats.Work, paper.Stats.Work,
			float64(ch.Stats.Work)/float64(paper.Stats.Work))
	}
	w2.Flush()
}

// E9PaperExamples replays Fig. 1 / Example 2.2, Example 3.1 and Example
// 3.4 verbatim.
func E9PaperExamples(cfg Config) {
	out := cfg.Out
	fmt.Fprintln(out, "E9: the paper's worked examples")
	af := []int{2, 4, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11, 14, 15, 16, 13}
	ab := []int{1, 2, 1, 1, 2, 2, 3, 3, 1, 1, 3, 1, 1, 2, 1, 3}
	f := make([]int, 16)
	for i, v := range af {
		f[i] = v - 1
	}
	ins := coarsest.Instance{F: f, B: ab}
	fmt.Fprintf(out, "Example 2.2 (Fig. 1): A_f = %v\n                      A_B = %v\n", af, ab)
	res := coarsest.ParallelPRAM(ins, coarsest.ParallelOptions{})
	plus1 := make([]int, 16)
	for i, v := range res.Labels {
		plus1[i] = v + 1
	}
	fmt.Fprintf(out, "ParallelPRAM A_Q (renamed) = %v\n", plus1)
	fmt.Fprintf(out, "paper's A_Q                = %v\n", []int{1, 2, 1, 3, 2, 2, 4, 4, 1, 3, 4, 3, 1, 2, 3, 4})
	fmt.Fprintf(out, "partitions equivalent: %v, classes = %d (paper: 4)\n\n",
		coarsest.SamePartition(res.Labels, []int{1, 2, 1, 3, 2, 2, 4, 4, 1, 3, 4, 3, 1, 2, 3, 4}), res.NumClasses)

	bc := []int{1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3}
	fmt.Fprintf(out, "Example 3.1: B_C = %v, smallest repeating prefix length = %d (paper: 4, P = (1,2,1,3))\n\n",
		bc, circ.SmallestRepeatingPrefix(bc))

	s := []int{3, 2, 1, 3, 2, 3, 4, 3, 1, 2, 3, 4, 2, 1, 1, 1, 3, 2, 2}
	m := pram.New(pram.ArbitraryCRCW)
	shifted := make([]int, len(s))
	for i, v := range s {
		shifted[i] = v + 1
	}
	c := m.NewArrayFromInts(shifted)
	derived, starts, _, _ := circ.EfficientReduceStep(m, c, circ.Options{Pad: circ.PadBlank})
	fmt.Fprintf(out, "Example 3.4: input %v\n", s)
	fmt.Fprintf(out, "one reduction: derived = %v (paper, rotated to first mark: (3,6,9,2,8,4,1,3,5,7))\n", derived.Ints())
	fmt.Fprintf(out, "pair starting positions (0-based) = %v\n", starts.Ints())
	idx := circ.BoothMSP(s)
	mm := pram.New(pram.ArbitraryCRCW)
	cc := mm.NewArrayFromInts(s)
	fmt.Fprintf(out, "m.s.p. of the input: efficient = %d, Booth = %d\n",
		circ.MSPPRAM(mm, cc, circ.Options{}), idx)
}

// E10BBMemory contrasts the literal BB table's quadratic cells with the
// dictionary realization (the Remark in §3.2).
func E10BBMemory(cfg Config) {
	fmt.Fprintln(cfg.Out, "E10: memory of Algorithm partition (cells = machine words)")
	w := newTable(cfg)
	fmt.Fprintln(w, "n\tk\tl\tBB cells\tdict cells\tratio\t")
	for _, k := range sizes(cfg, []int{8, 16, 32, 64, 128}, []int{8, 16, 32}) {
		l := 8
		ins := workload.DistinctCycles(cfg.Seed, k, l, 3)
		n := k * l

		mBB := pram.New(pram.ArbitraryCRCW)
		aBB := mBB.NewArrayFromInts(ins.B)
		mBB.ResetStats()
		c1, _ := partition.BBTablePRAM(mBB, aBB, k, l, intsort.Modeled)

		mD := pram.New(pram.ArbitraryCRCW)
		aD := mD.NewArrayFromInts(ins.B)
		mD.ResetStats()
		c2, _ := partition.PairingPRAM(mD, aD, k, l, intsort.Modeled)

		if !coarsest.SamePartition(c1.Ints(), c2.Ints()) {
			fmt.Fprintf(w, "%d\tDISAGREE\t\t\t\t\t\n", n)
			continue
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.1f\t\n",
			n, k, l, mBB.Stats().Cells, mD.Stats().Cells,
			float64(mBB.Stats().Cells)/float64(mD.Stats().Cells))
	}
	w.Flush()
}

// A1IntSort compares the three integer-sorting strategies on the same keys.
func A1IntSort(cfg Config) {
	fmt.Fprintln(cfg.Out, "A1: integer sorting strategies (keys uniform in [0,n))")
	w := newTable(cfg)
	fmt.Fprintln(w, "n\tmodeled work\tbit-split work\tgrouped work\tmodeled rounds\tbit-split rounds\tgrouped rounds\t")
	for _, n := range sizes(cfg, []int{1 << 10, 1 << 13, 1 << 16}, []int{1 << 10, 1 << 12}) {
		keys := make([]int64, n)
		rng := workload.CircularString(cfg.Seed, n, n)
		for i, v := range rng {
			keys[i] = int64(v)
		}
		var work [3]int64
		var rounds [3]int64
		for i, strat := range []intsort.Strategy{intsort.Modeled, intsort.BitSplit, intsort.Grouped} {
			m := pram.New(pram.ArbitraryCRCW)
			a := m.NewArrayFrom(keys)
			m.ResetStats()
			intsort.SortPRAM(m, a, int64(n), strat)
			work[i] = m.Stats().Work
			rounds[i] = m.Stats().Rounds
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			n, work[0], work[1], work[2], rounds[0], rounds[1], rounds[2])
	}
	w.Flush()
}

// A2ListRank compares Wyllie pointer jumping against the sparse ruling set
// on a single long cycle.
func A2ListRank(cfg Config) {
	fmt.Fprintln(cfg.Out, "A2: list ranking methods (single cycle of length n)")
	w := newTable(cfg)
	fmt.Fprintln(w, "n\twyllie work\truling work\tratio\twyllie rounds\truling rounds\t")
	for _, n := range sizes(cfg, []int{1 << 10, 1 << 13, 1 << 16, 1 << 18}, []int{1 << 10, 1 << 13}) {
		next := make([]int, n)
		for i := range next {
			next[i] = (i + 1) % n
		}
		var work [2]int64
		var rounds [2]int64
		for i, method := range []listrank.Method{listrank.Wyllie, listrank.RulingSet} {
			m := pram.New(pram.ArbitraryCRCW)
			a := m.NewArrayFromInts(next)
			m.ResetStats()
			listrank.CycleRank(m, a, method)
			work[i] = m.Stats().Work
			rounds[i] = m.Stats().Rounds
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\t%d\t%d\t\n",
			n, work[0], work[1], float64(work[0])/float64(work[1]), rounds[0], rounds[1])
	}
	w.Flush()
}

// A3Cutoff varies the Step-4 switch point of the efficient m.s.p.
// algorithm between "never reduce" (simple only), the paper's n/log n, and
// "reduce to exhaustion".
func A3Cutoff(cfg Config) {
	n := 1 << 14
	if cfg.Quick {
		n = 1 << 11
	}
	s := workload.CircularString(cfg.Seed, n, 4)
	if circ.SmallestRepeatingPrefix(s) != n {
		s[0]++
	}
	want := circ.BoothMSP(s)
	lg := bits.Len(uint(n))
	fmt.Fprintf(cfg.Out, "A3: m.s.p. cutoff ablation (n = %d)\n", n)
	w := newTable(cfg)
	fmt.Fprintln(w, "cutoff\twork\trounds\tcorrect\t")
	cutoffs := []struct {
		name string
		val  int
	}{
		{"n (simple only)", n},
		{"n/2", n / 2},
		{fmt.Sprintf("n/log n = %d (paper)", n/lg), n / lg},
		{"64", 64},
		{"1 (exhaustive)", 1},
	}
	for _, co := range cutoffs {
		m := pram.New(pram.ArbitraryCRCW)
		c := m.NewArrayFromInts(s)
		m.ResetStats()
		got := circ.EfficientMSPPRAMWithCutoff(m, c, circ.Options{}, co.val)
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t\n", co.name, m.Stats().Work, m.Stats().Rounds, got == want)
	}
	w.Flush()
}

func intSlicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A5Coalescing measures the coalescing micro-batch front door against
// per-request handling on its target regime: many concurrent small solves
// (well under the batch crew's 32768-element threshold, and planned onto
// the sequential linear solver). Both arms run on sfcpd's own pool
// (internal/pool at the server's default of 2 slots per lane), with HTTP
// and caching stripped away. The per-request arm pays what a solve on a
// lane pays — validation and the constant Auto plan (PlanWith), a slot
// of the linear lane, and a scratch checkout — and solves on its own
// goroutine; the coalesced arm queues requests for the pool's batch
// crew, which solves each pass's members back-to-back under one shared
// scratch arena. Emits one JSON document (like A7 and A8) for
// BENCH_*.json trajectory tracking.
func A5Coalescing(cfg Config) {
	type row struct {
		N             int     `json:"n"`
		Requests      int     `json:"requests"`
		Concurrency   int     `json:"concurrency"`
		Distinct      int     `json:"distinct_instances"`
		UncoalescedNS int64   `json:"uncoalesced_ns"`
		CoalescedNS   int64   `json:"coalesced_ns"`
		Speedup       float64 `json:"speedup"`
		Flushes       int64   `json:"flushes"`
		AvgBatch      float64 `json:"avg_batch"`
		Agree         bool    `json:"agree"`
	}
	doc := struct {
		Experiment  string          `json:"experiment"`
		Title       string          `json:"title"`
		GOMAXPROCS  int             `json:"gomaxprocs"`
		Host        HostFingerprint `json:"host"`
		MaxSize     int             `json:"batch_max_size"`
		Concurrency int             `json:"concurrency"`
		Rows        []row           `json:"rows"`
	}{
		Experiment:  "A5",
		Title:       "coalescing front door: micro-batched vs per-request small solves",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Host:        Fingerprint(),
		MaxSize:     pool.BatchCap,
		Concurrency: 64,
	}
	requests := 10000
	if cfg.Quick {
		requests = 2000
	}
	ctx := context.Background()

	for _, n := range sizes(cfg, []int{16, 64, 256, 1024}, []int{16, 64}) {
		// A fixed pool of distinct instances keeps workload-generation out
		// of the timed region without letting one memoizable instance
		// dominate; neither arm caches, so reuse does not flatter either.
		distinct := 256
		if distinct > requests {
			distinct = requests
		}
		instances := make([]sfcp.Instance, distinct)
		want := make([][]int, distinct)
		for i := range instances {
			wl := workload.RandomFunction(cfg.Seed+int64(n)+int64(i), n, 3)
			instances[i] = sfcp.Instance{F: wl.F, B: wl.B}
			want[i] = coarsest.LinearSequential(coarsest.Instance{F: wl.F, B: wl.B})
		}

		// The in-loop check is exact slice equality, not SamePartition:
		// both arms resolve to the same canonical linear rename, and a
		// map-based equivalence check would add identical constant work to
		// both timed loops, squeezing the measured ratio toward 1.
		run := func(handle func(i int) ([]int, error)) (time.Duration, bool) {
			var wg sync.WaitGroup
			var agree atomic.Bool
			agree.Store(true)
			per := requests / doc.Concurrency
			t0 := time.Now()
			for c := 0; c < doc.Concurrency; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						i := c*per + j
						labels, err := handle(i)
						if err != nil || !intSlicesEqual(labels, want[i%distinct]) {
							agree.Store(false)
						}
					}
				}(c)
			}
			wg.Wait()
			return time.Since(t0), agree.Load()
		}

		// The server's pool, its batch crew solving as the server's does,
		// and its passes counted through the same flush callback that
		// feeds the server's sfcpd_batcher_* families.
		coSolver := sfcp.NewSolver(sfcp.Options{})
		var flushes, members atomic.Int64
		p := pool.New(2, func(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error) {
			return coSolver.SolveBatchPlanned(ctx, ins, pool.BatchPlan)
		}, func(_ string, n int, _ time.Duration) {
			flushes.Add(1)
			members.Add(int64(n))
		})

		// Per-request arm: validate + plan on the caller, then a slot of
		// the linear lane and a scratch checkout — a lane solve's work
		// with HTTP and caching stripped away.
		perReq := sfcp.NewSolver(sfcp.Options{})
		uncoHandle := func(i int) ([]int, error) {
			ins := instances[i%distinct]
			// The server reads the clock around both planning and
			// execution (the plan-vs-execute latency split every response
			// carries); the baseline pays the same two pairs per request.
			planStart := time.Now()
			plan, err := sfcp.PlanWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmAuto})
			planDur := time.Since(planStart)
			if err != nil {
				return nil, err
			}
			solveStart := time.Now()
			var res sfcp.Result
			err = p.Run(ctx, plan.Algorithm, func() (err error) {
				res, err = perReq.SolvePlanned(ctx, ins, plan)
				res.Timings.Plan = planDur
				return err
			})
			if time.Since(solveStart) < 0 {
				return nil, errors.New("bench: clock went backwards")
			}
			return res.Labels, err
		}

		// Coalesced arm: the same traffic through the batch crew.
		coHandle := func(i int) ([]int, error) {
			out := p.Batch(ctx, instances[i%distinct])
			return out.Res.Labels, out.Err
		}

		// Both arms repeat, pass-interleaved, and report their fastest
		// pass: min-of-reps sheds scheduler noise (one pass of 64 clients
		// over tiny solves is only milliseconds of work, well inside OS
		// jitter), and alternating the arms keeps a slow drift in machine
		// load from landing entirely on one side of the ratio. The GC runs
		// between passes so one pass's garbage never triggers a collection
		// inside the next one's timed region.
		reps := 9
		if cfg.Quick {
			reps = 3
		}
		uncoalesced, coalesced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		okU, okC := true, true
		for r := 0; r < reps; r++ {
			runtime.GC()
			d, o := run(uncoHandle)
			if d < uncoalesced {
				uncoalesced = d
			}
			okU = okU && o
			runtime.GC()
			d, o = run(coHandle)
			if d < coalesced {
				coalesced = d
			}
			okC = okC && o
		}
		p.Close()

		r := row{
			N:             n,
			Requests:      requests,
			Concurrency:   doc.Concurrency,
			Distinct:      distinct,
			UncoalescedNS: int64(uncoalesced),
			CoalescedNS:   int64(coalesced),
			Speedup:       float64(uncoalesced) / float64(coalesced),
			Flushes:       flushes.Load(),
			Agree:         okU && okC,
		}
		if r.Flushes > 0 {
			r.AvgBatch = float64(members.Load()) / float64(r.Flushes)
		}
		doc.Rows = append(doc.Rows, r)
	}
	enc := json.NewEncoder(cfg.Out)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// RunAll executes every experiment in order.
func RunAll(cfg Config) {
	for _, e := range All() {
		fmt.Fprintf(cfg.Out, "==== %s — %s ====\n", e.ID, e.Title)
		e.Run(cfg)
		fmt.Fprintln(cfg.Out)
	}
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
