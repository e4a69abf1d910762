package coarsest

import (
	"encoding/binary"
	"unsafe"

	"sfcp/internal/circ"
)

// Scratch holds the linear solver's working buffers so repeated solves
// reuse one arena instead of reallocating their n-sized slices per call:
// nine int32 slices (36 B/elem) plus one row per cycle. Package sfcp
// keeps one process-wide sync.Pool of them behind its dispatch table;
// benchmark loops keep one each. A Scratch is not safe for concurrent
// use. The zero value is ready to use.
type Scratch struct {
	i32  [][]int32
	ni32 int

	// Per-solve state, reused across calls so the per-call cost of a
	// map is a clear (proportional to the previous solve's entries)
	// instead of fresh bucket allocation.
	rows    []cycle          // one row per cycle
	canon   map[string]int32 // canonical cycle string -> its class's first code
	bRename map[int]int32    // B label -> class, when B leaves [0, n)
	key     []byte           // canonical-string key build buffer
}

func (s *Scratch) reset() {
	s.ni32 = 0
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
	b += int(unsafe.Sizeof(cycle{})) * cap(s.rows)
	return b + cap(s.key)
}

// checkout hands out the next int32 buffer of length n, growing the pool
// on first use (and whenever n outgrows a stored buffer). Its contents
// are whatever the last solve left there.
func (s *Scratch) checkout(n int) []int32 {
	if s.ni32 == len(s.i32) {
		s.i32 = append(s.i32, make([]int32, n))
	} else if cap(s.i32[s.ni32]) < n {
		s.i32[s.ni32] = make([]int32, n)
	}
	buf := s.i32[s.ni32][:n]
	s.ni32++
	return buf
}

// bufI32 hands out the next zeroed int32 buffer of length n.
func (s *Scratch) bufI32(n int) []int32 {
	buf := s.checkout(n)
	clear(buf)
	return buf
}

// bufI32Raw is bufI32 without the zeroing pass, for buffers that are fully
// written before they are read.
func (s *Scratch) bufI32Raw(n int) []int32 { return s.checkout(n) }

// cycleRows hands out k rows for the per-cycle facts, growing to exactly
// k when the retained rows are too few.
func (s *Scratch) cycleRows(k int) []cycle {
	if cap(s.rows) < k {
		s.rows = make([]cycle, k)
	}
	return s.rows[:k]
}

// LinearSequential solves the coarsest partition problem in O(n) expected
// time with the cycle/tree decomposition of the paper run sequentially —
// the structure of Paige, Tarjan & Bonic's linear-time solution (reference
// [16]). F is copied into the arena as int32 and B becomes int32 classes
// (its own values when they lie in [0, n), a first-occurrence rename
// otherwise); then
//
//  1. find the cycles of the pseudo-forest: the walk that closes a cycle
//     appends it, in rank order, to one sequence of cycle nodes, and each
//     cycle gets one row (start, length) indexed by a cycle id per node,
//  2. reduce each cycle's class string to its smallest repeating prefix
//     (KMP), rotate that to its least rotation (Duval), and group equal
//     canonical strings: nodes at equal offsets of equivalent cycles share
//     a Q-code (Section 3 of the paper),
//  3. resolve tree nodes parents first along memoized walks: a node whose
//     parent is marked and whose class matches its counterpart on the
//     cycle is marked and takes the counterpart's code (Lemma 4.1); any
//     other node records its depth below the marked set,
//  4. code the unmarked nodes depth by depth below the marked set (the
//     sequential form of Lemma 4.2): counting-sort each depth by parent
//     code, then give each distinct class within a parent group a fresh
//     code.
//
// Every per-node array is an int32 arena slice, and none grows with the
// number of distinct labels. The codes stay below n, and a final
// first-occurrence renumber makes the labels canonical.
func LinearSequential(ins Instance) []int {
	labels, _ := LinearSequentialScratch(ins, nil)
	return labels
}

// LinearSequentialScratch is LinearSequential with caller-provided scratch
// buffers; sc may be nil (a fresh arena is used). All O(n) working vectors
// come from sc, so a solve on a warm arena allocates little beyond the
// returned labels and its canonical-key strings. The labels are always
// freshly allocated, never arena memory. classes is their class count, a
// byproduct of the final renumber.
func LinearSequentialScratch(ins Instance, sc *Scratch) (labels []int, classes int) {
	if len(ins.F) == 0 {
		return []int{}, 0
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.reset()
	l := newLinear(ins, sc)
	l.findCycles()
	l.canonicalize()
	l.mark()
	l.codeUnmarked()
	labels = make([]int, len(ins.F))
	return labels, l.finish(labels)
}

// State tags of linear.cyc; cycle ids are non-negative.
const (
	unseen   = -1 // step 1: not walked yet
	onPath   = -2 // step 1: on the current walk
	tree     = -3 // a tree node step 3 has not resolved yet
	unmarked = -4 // a tree node outside the marked set
)

// cycle is one row of per-cycle facts: the cycle's nodes are
// seq[start : start+len], in rank order.
type cycle struct {
	start, len int32
}

// linear is one solve of the full algorithm. Its slices are arena
// checkouts that die with the solve; path, aux, seq and rank take a second
// role once their first is over, as noted per field.
type linear struct {
	sc *Scratch
	f  []int32 // F
	// cls holds the classes of B: injective, each in [0, n).
	cls []int32
	// cyc is the cycle id of a cycle node or a marked tree node (that of
	// its root's cycle); otherwise one of the state tags.
	cyc []int32
	// rank is a cycle node's rank on its cycle, a marked tree node's
	// counterpart's rank, and an unmarked node's depth below the marked
	// set. Step 4: counts of its counting sort by parent code.
	rank []int32
	// code is the provisional Q-code; codes are dense in [0, next).
	code []int32
	// seq holds the cycle nodes, cycle after cycle in rank order. Step 4:
	// the unmarked nodes sorted by depth.
	seq []int32
	// path is the walk stack of steps 1 and 3. Step 2: a cycle's class
	// string. Step 4: one depth's nodes sorted by parent code.
	path []int32
	// aux holds the cycle starts in step 1, the KMP failure table in step
	// 2 and the depth boundaries in step 4; it has n+1 slots.
	aux []int32
	// ids is all-zero between uses. Step 4: class -> code+1 within a
	// parent group. Finish: code -> label+1.
	ids  []int32
	rows []cycle

	next      int32 // next free code; after step 2, codes below it are cycle codes
	nUnmarked int32 // number of unmarked tree nodes
	maxDepth  int32 // deepest unmarked node's depth below the marked set
}

// newLinear checks out the solve's arrays and loads the inputs: F as
// int32, B as classes. Labels already in [0, n) are their own classes;
// anything else is renamed by first occurrence through sc.bRename.
func newLinear(ins Instance, sc *Scratch) linear {
	n := len(ins.F)
	l := linear{
		sc:   sc,
		f:    sc.bufI32Raw(n),
		cls:  sc.bufI32Raw(n),
		cyc:  sc.bufI32Raw(n),
		rank: sc.bufI32Raw(n),
		code: sc.bufI32Raw(n),
		seq:  sc.bufI32Raw(n),
		path: sc.bufI32Raw(n),
		aux:  sc.bufI32Raw(n + 1),
		ids:  sc.bufI32(n),
	}
	for x, y := range ins.F {
		l.f[x] = int32(y)
	}
	dense := true
	for x, v := range ins.B {
		if uint(v) >= uint(n) {
			dense = false
			break
		}
		l.cls[x] = int32(v)
	}
	if !dense {
		if sc.bRename == nil {
			sc.bRename = make(map[int]int32)
		}
		for x, v := range ins.B {
			id, ok := sc.bRename[v]
			if !ok {
				id = int32(len(sc.bRename))
				sc.bRename[v] = id
			}
			l.cls[x] = id
		}
	}
	return l
}

// findCycles is step 1. It walks forward from every unseen node until it
// meets a node seen before. If that node is on the current walk, the
// walk's suffix from it is a new cycle, already in rank order; every
// other node of the walk is a tree node.
func (l *linear) findCycles() {
	f, cyc, rank, seq, path, starts := l.f, l.cyc, l.rank, l.seq, l.path, l.aux
	for x := range cyc {
		cyc[x] = unseen
	}
	k, nseq := int32(0), int32(0)
	for s := range f {
		if cyc[s] != unseen {
			continue
		}
		np := 0
		x := int32(s)
		for cyc[x] == unseen {
			cyc[x] = onPath
			path[np] = x
			np++
			x = f[x]
		}
		if cyc[x] == onPath {
			i := np - 1
			for path[i] != x {
				i--
			}
			starts[k] = nseq
			for r, y := range path[i:np] {
				cyc[y] = k
				rank[y] = int32(r)
				seq[nseq] = y
				nseq++
			}
			k++
			np = i
		}
		for _, y := range path[:np] {
			cyc[y] = tree
		}
	}
	starts[k] = nseq
	l.rows = l.sc.cycleRows(int(k))
	for c := range l.rows {
		l.rows[c] = cycle{start: starts[c], len: starts[c+1] - starts[c]}
	}
}

// canonicalize is step 2. Each new canonical string reserves one code
// per offset of its period, so the node at rank i of a cycle whose least
// rotation starts at msp takes its class's first code plus (i-msp) mod p.
func (l *linear) canonicalize() {
	cls, code, seq, str, fail := l.cls, l.code, l.seq, l.path, l.aux
	sc := l.sc
	if sc.canon == nil {
		sc.canon = make(map[string]int32)
	}
	key := sc.key
	next := int32(0)
	for _, row := range l.rows {
		nodes := seq[row.start : row.start+row.len]
		s := str[:len(nodes)]
		for i, y := range nodes {
			s[i] = cls[y]
		}
		p := circ.SmallestRepeatingPrefixBuf(s, fail)
		msp := circ.DuvalMSP(s[:p])
		// The rotated prefix goes into the reusable key buffer as varints;
		// the lookup on string(key) does not allocate, and a string is
		// materialized only when the class is new.
		key = key[:0]
		for _, v := range s[msp:p] {
			key = binary.AppendUvarint(key, uint64(v))
		}
		for _, v := range s[:msp] {
			key = binary.AppendUvarint(key, uint64(v))
		}
		base, ok := sc.canon[string(key)]
		if !ok {
			base = next
			next += int32(p)
			sc.canon[string(key)] = base
		}
		off, per := int32((p-msp)%p), int32(p)
		for _, y := range nodes {
			code[y] = base + off
			if off++; off == per {
				off = 0
			}
		}
	}
	sc.key = key // keep the grown buffer for the next solve
	l.next = next
}

// mark is step 3 (Lemma 4.1). A walk climbs to the first resolved node and
// resolves its path on the way back down, so every node is resolved after
// its parent. The counterpart of a marked node's child sits one rank back
// on the cycle; a child whose class matches it is marked too.
func (l *linear) mark() {
	f, cls, cyc, rank, code, seq, path, rows := l.f, l.cls, l.cyc, l.rank, l.code, l.seq, l.path, l.rows
	count, maxDepth := int32(0), int32(0)
	for s := range f {
		if cyc[s] != tree {
			continue
		}
		np := 0
		for x := int32(s); cyc[x] == tree; x = f[x] {
			path[np] = x
			np++
		}
		for i := np - 1; i >= 0; i-- {
			x := path[i]
			p := f[x]
			if c := cyc[p]; c >= 0 {
				row := rows[c]
				r := rank[p] - 1
				if r < 0 {
					r += row.len
				}
				if y := seq[row.start+r]; cls[x] == cls[y] {
					cyc[x], rank[x], code[x] = c, r, code[y]
					continue
				}
				rank[x] = 1
			} else {
				rank[x] = rank[p] + 1
			}
			cyc[x] = unmarked
			count++
			maxDepth = max(maxDepth, rank[x])
		}
	}
	l.nUnmarked, l.maxDepth = count, maxDepth
}

// codeUnmarked is step 4 (Lemma 4.2), depth by depth below the marked
// set. Equivalent nodes share that depth, so codes never have to match
// across depths: each depth takes fresh codes, one per distinct (parent
// code, class) pair. Its parents are the previous depth, whose codes form
// one contiguous range (cycle codes for depth 1), so a counting sort
// groups the depth by parent. Within a group, ids maps a class to its
// code; an entry older than the group's first code is stale, so the table
// is never cleared.
func (l *linear) codeUnmarked() {
	if l.nUnmarked == 0 {
		return
	}
	f, cls, code, ids := l.f, l.cls, l.code, l.ids

	// Counting sort by depth: depth d's nodes end up in
	// order[ends[d-1]:ends[d]].
	order := l.seq[:l.nUnmarked]
	ends := l.aux[:l.maxDepth+1]
	clear(ends)
	for x, c := range l.cyc {
		if c == unmarked {
			ends[l.rank[x]]++
		}
	}
	sum := int32(0)
	for d, c := range ends {
		ends[d] = sum
		sum += c
	}
	for x, c := range l.cyc {
		if c == unmarked {
			d := l.rank[x]
			order[ends[d]] = int32(x)
			ends[d]++
		}
	}

	next := l.next
	lo := int32(0) // parent codes of the current depth: [lo, next at its start)
	for d := int32(1); d <= l.maxDepth; d++ {
		nodes := order[ends[d-1]:ends[d]]
		// Counting sort by parent code; afterwards group j, the children
		// of code lo+j, is byParent[groupEnd[j-1]:groupEnd[j]].
		groupEnd := l.rank[:next-lo]
		clear(groupEnd)
		for _, x := range nodes {
			groupEnd[code[f[x]]-lo]++
		}
		sum := int32(0)
		for j, c := range groupEnd {
			groupEnd[j] = sum
			sum += c
		}
		byParent := l.path[:len(nodes)]
		for _, x := range nodes {
			j := code[f[x]] - lo
			byParent[groupEnd[j]] = x
			groupEnd[j]++
		}
		lo = next
		start := int32(0)
		for _, end := range groupEnd {
			first := next
			for _, x := range byParent[start:end] {
				e := ids[cls[x]]
				if e <= first {
					next++
					e = next
					ids[cls[x]] = e
				}
				code[x] = e - 1
			}
			start = end
		}
	}
	l.next = next
}

// finish renumbers the codes by first occurrence into out and returns the
// class count.
func (l *linear) finish(out []int) int {
	ids := l.ids[:l.next]
	clear(ids)
	next := int32(0)
	for x, c := range l.code {
		id := ids[c]
		if id == 0 {
			next++
			id = next
			ids[c] = id
		}
		out[x] = int(id - 1)
	}
	return int(next)
}
