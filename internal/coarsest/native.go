package coarsest

import (
	"context"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"sfcp/internal/circ"
	"sfcp/internal/par"
)

// Scratch holds the working buffers of NativeParallel and
// LinearSequentialScratch so repeated solves (batch serving, benchmark
// loops) reuse one arena instead of reallocating their n-sized slices per
// call: nine int32 slices for the linear solver (36 B/elem) plus its
// per-cycle rows. A Scratch is not safe for concurrent use; callers
// wanting concurrency keep one per worker (e.g. via sync.Pool). The zero
// value is ready to use.
type Scratch struct {
	i32               [][]int32
	i64               [][]int64
	bools             [][]bool
	ni32, ni64, nbool int

	// Linear-solver state, reused across calls so the per-call cost of a
	// map is a clear (proportional to the previous solve's entries)
	// instead of fresh bucket allocation.
	rows    []cycle          // one row per cycle
	canon   map[string]int32 // canonical cycle string -> its class's first code
	bRename map[int]int32    // B label -> class, when B leaves [0, n)
	key     []byte           // canonical-string key build buffer
	// pairArr is mooreSmall's pair coder: indexed class*n + class, value
	// code+1. It is kept all-zero BETWEEN solves by undoing the touched
	// entries (recorded in pairTouched) at the end of each round, so a new
	// solve never pays an O(len) clear.
	pairArr     []int32
	pairTouched []int32
}

func (s *Scratch) reset() {
	s.ni32, s.ni64, s.nbool = 0, 0, 0
	clear(s.canon)
	clear(s.bRename)
}

// footprint returns the bytes of slice capacity the arena retains between
// solves; the maps are not counted.
func (s *Scratch) footprint() int {
	b := 0
	for _, buf := range s.i32 {
		b += 4 * cap(buf)
	}
	for _, buf := range s.i64 {
		b += 8 * cap(buf)
	}
	for _, buf := range s.bools {
		b += cap(buf)
	}
	b += int(unsafe.Sizeof(cycle{})) * cap(s.rows)
	return b + cap(s.key) + 4*(cap(s.pairArr)+cap(s.pairTouched))
}

// checkout hands out the next buffer of length n from pool, growing the
// pool on first use (and whenever n outgrows a stored buffer). Its
// contents are whatever the last solve left there.
func checkout[T any](pool *[][]T, next *int, n int) []T {
	if *next == len(*pool) {
		*pool = append(*pool, make([]T, n))
	} else if cap((*pool)[*next]) < n {
		(*pool)[*next] = make([]T, n)
	}
	buf := (*pool)[*next][:n]
	*next++
	return buf
}

// bufI32 hands out the next zeroed int32 buffer of length n.
func (s *Scratch) bufI32(n int) []int32 {
	buf := checkout(&s.i32, &s.ni32, n)
	clear(buf)
	return buf
}

// bufI32Raw is bufI32 without the zeroing pass, for buffers that are fully
// written before they are read.
func (s *Scratch) bufI32Raw(n int) []int32 { return checkout(&s.i32, &s.ni32, n) }

func (s *Scratch) bufI64(n int) []int64 {
	buf := checkout(&s.i64, &s.ni64, n)
	clear(buf)
	return buf
}

func (s *Scratch) bufBool(n int) []bool {
	buf := checkout(&s.bools, &s.nbool, n)
	clear(buf)
	return buf
}

// cycleRows hands out k rows for the linear solver's per-cycle facts,
// growing to exactly k when the retained rows are too few.
func (s *Scratch) cycleRows(k int) []cycle {
	if cap(s.rows) < k {
		s.rows = make([]cycle, k)
	}
	return s.rows[:k]
}

// NativeParallel solves the coarsest partition problem with plain
// goroutines on real cores — the engineering counterpart of ParallelPRAM
// used for wall-clock measurements (experiment E8). Structure discovery
// uses parallel pointer doubling (O(n log n) work, but wide vectorizable
// passes), cycle canonization runs one goroutine pool over the cycles, and
// the forest is labeled by parallel code doubling through a sharded
// concurrent dictionary. Output equals the other solvers'.
func NativeParallel(ins Instance, workers int) []int {
	return NativeParallelScratch(ins, workers, nil)
}

// NativeParallelScratch is NativeParallel with caller-provided scratch
// buffers; sc may be nil (a fresh arena is used). Only the returned labels
// escape — every internal vector comes from sc.
func NativeParallelScratch(ins Instance, workers int, sc *Scratch) []int {
	labels, _ := NativeParallelCtx(context.Background(), ins, workers, sc)
	return labels
}

// NativeParallelCtx is NativeParallelScratch with cooperative cancellation:
// ctx is polled between refinement rounds (every pointer-doubling span and
// code-doubling iteration), so a cancelled solve returns ctx.Err() within
// one O(n) round instead of running minutes to a discarded answer. The
// scratch arena is left reusable on either path.
func NativeParallelCtx(ctx context.Context, ins Instance, workers int, sc *Scratch) ([]int, error) {
	n := len(ins.F)
	if n == 0 {
		return []int{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.reset()
	workers = par.Workers(workers)
	f, b := ins.F, narrowLabels(ins.B)

	// Phase 1: cycle nodes = the image of f^N for any N >= n, found by
	// parallel pointer doubling.
	g := sc.bufI32(n)
	tmp := sc.bufI32(n)
	par.For(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g[i] = int32(f[i])
		}
	})
	for span := 1; span < n; span <<= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		par.For(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tmp[i] = g[g[i]]
			}
		})
		g, tmp = tmp, g
	}
	onCycle := sc.bufI32(n)
	par.For(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&onCycle[g[i]], 1)
		}
	})

	// Phase 2: tree roots and levels by doubling with distance carrying.
	jump := sc.bufI32(n)
	dist := sc.bufI32(n)
	jtmp := sc.bufI32(n)
	dtmp := sc.bufI32(n)
	par.For(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if onCycle[i] != 0 {
				jump[i] = int32(i)
				dist[i] = 0
			} else {
				jump[i] = int32(f[i])
				dist[i] = 1
			}
		}
	})
	for span := 1; span < n; span <<= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		par.For(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				j := jump[i]
				jtmp[i] = jump[j]
				dtmp[i] = dist[i] + dist[j]
			}
		})
		jump, jtmp = jtmp, jump
		dist, dtmp = dtmp, dist
	}
	root, level := jump, dist // root[x] = cycle entry; level[x] = distance

	// Phase 3: enumerate cycles (cheap sequential pass over cycle nodes),
	// then canonize every cycle in parallel.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cycles [][]int
	rankOf := sc.bufI32(n)
	cycleID := sc.bufI32(n)
	seen := sc.bufBool(n)
	for s := 0; s < n; s++ {
		if onCycle[s] == 0 || seen[s] {
			continue
		}
		id := int32(len(cycles))
		var cyc []int
		x := s
		for !seen[x] {
			seen[x] = true
			rankOf[x] = int32(len(cyc))
			cycleID[x] = id
			cyc = append(cyc, x)
			x = f[x]
		}
		cycles = append(cycles, cyc)
	}
	k := len(cycles)

	type cycMeta struct {
		period int
		msp    int
		class  int32
	}
	meta := make([]cycMeta, k)
	canonKeys := make([]string, k)
	par.For(workers, k, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			cyc := cycles[ci]
			bs := make([]int, len(cyc))
			for i, y := range cyc {
				bs[i] = b[y]
			}
			p := circ.SmallestRepeatingPrefix(bs)
			msp := circ.BoothMSP(bs[:p])
			canon := make([]int, p)
			for i := 0; i < p; i++ {
				canon[i] = bs[(msp+i)%p]
			}
			meta[ci] = cycMeta{period: p, msp: msp}
			canonKeys[ci] = intsKey(canon)
		}
	})
	classOf := map[string]int32{}
	for ci := 0; ci < k; ci++ {
		cls, ok := classOf[canonKeys[ci]]
		if !ok {
			cls = int32(len(classOf))
			classOf[canonKeys[ci]] = cls
		}
		meta[ci].class = cls
	}

	// Provisional codes, all drawn from one shared dictionary. The
	// dictionary's codes are globally injective per key, so composite keys
	// built from codes are semantically sound; raw leaf atoms (classes,
	// offsets, B-labels) enter through a unique NEGATIVE role tag each, so
	// they can never collide with internal code-pair keys (codes are
	// non-negative).
	dict := par.NewDict(2 * n)
	const (
		tagClass  = -1
		tagOffset = -2
		tagB      = -3
		tagAnchor = -4
		tagFinalQ = -5
		tagFinalU = -6
	)
	code := sc.bufI64(n)
	par.For(workers, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if onCycle[x] == 0 {
				continue
			}
			m := meta[cycleID[x]]
			off := (int(rankOf[x]) - m.msp) % m.period
			if off < 0 {
				off += m.period
			}
			code[x] = dict.Code(dict.Code(int64(m.class), tagClass), dict.Code(int64(off), tagOffset))
		}
	})

	// Phase 4: Lemma 4.1 marking. matches[x] for tree nodes; then OR of
	// mismatches along the tree path by doubling.
	bad := sc.bufI32(n)
	correspQ := sc.bufI64(n)
	par.For(workers, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if onCycle[x] != 0 {
				correspQ[x] = code[x]
				continue
			}
			r := int(root[x])
			cyc := cycles[cycleID[r]]
			kLen := len(cyc)
			cr := (int(rankOf[r]) - int(level[x])) % kLen
			if cr < 0 {
				cr += kLen
			}
			node := cyc[cr]
			correspQ[x] = code[node]
			if b[x] != b[node] {
				bad[x] = 1
			}
		}
	})
	// OR-doubling along tree parents (cycle nodes are fixpoints, bad=0).
	jb := sc.bufI32(n)
	jbTmp := sc.bufI32(n)
	badTmp := sc.bufI32(n)
	par.For(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if onCycle[i] != 0 {
				jb[i] = int32(i)
			} else {
				jb[i] = int32(f[i])
			}
		}
	})
	maxLevel := int32(0)
	for i := 0; i < n; i++ {
		if level[i] > maxLevel {
			maxLevel = level[i]
		}
	}
	for span := 1; span <= int(maxLevel); span <<= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		par.For(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				j := jb[i]
				badTmp[i] = bad[i] | bad[j]
				jbTmp[i] = jb[j]
			}
		})
		bad, badTmp = badTmp, bad
		jb, jbTmp = jbTmp, jb
	}
	labeled := sc.bufBool(n)
	par.For(workers, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			labeled[x] = onCycle[x] != 0 || bad[x] == 0
		}
	})

	// Phase 5: Lemma 4.2 coding for unmarked nodes by code doubling.
	pcode := sc.bufI64(n)
	pj := sc.bufI32(n)
	pcTmp := sc.bufI64(n)
	pjTmp := sc.bufI32(n)
	par.For(workers, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if labeled[x] {
				pcode[x] = dict.Code(correspQ[x], tagAnchor)
				pj[x] = int32(x)
			} else {
				pcode[x] = dict.Code(int64(b[x]), tagB)
				pj[x] = int32(f[x])
			}
			// Note: Code(v, negativeTag) keys cannot collide with the
			// iteration keys Code(code, code) below because dictionary
			// codes are non-negative.
		}
	})
	iters := bits.Len(uint(maxLevel+1)) + 1
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		par.For(workers, n, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				if labeled[x] {
					pcTmp[x] = pcode[x]
					pjTmp[x] = pj[x]
					continue
				}
				j := pj[x]
				pcTmp[x] = dict.Code(pcode[x], pcode[j])
				pjTmp[x] = pj[j]
			}
		})
		pcode, pcTmp = pcTmp, pcode
		pj, pjTmp = pjTmp, pj
	}

	// Final keys and dense renaming.
	keys := sc.bufI64(n)
	par.For(workers, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if labeled[x] {
				keys[x] = dict.Code(correspQ[x], tagFinalQ)
			} else {
				keys[x] = dict.Code(pcode[x], tagFinalU)
			}
		}
	})
	labels := make([]int, n)
	rename := make(map[int64]int, 64)
	for x := 0; x < n; x++ {
		id, ok := rename[keys[x]]
		if !ok {
			id = len(rename)
			rename[keys[x]] = id
		}
		labels[x] = id
	}
	return labels, nil
}

// intsKey builds a map key from an int slice.
func intsKey(s []int) string {
	buf := make([]byte, 0, len(s)*5)
	for _, v := range s {
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v), 0xff)
	}
	return string(buf)
}
