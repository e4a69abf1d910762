// Package incr implements incremental re-solve for the single-function
// coarsest partition problem: a reusable decomposition State built by one
// full solve, plus ApplyDelta, which re-runs the cycle/tree machinery of
// the linear algorithm only on the components a batch of edits
// invalidates and splices the refreshed labels into the previous result
// under the canonical first-occurrence renumbering — so every version's
// labels are byte-identical to a full solve of the edited instance.
//
// Why component-scoped recompute is sound: a node's Q-label is a function
// of its forward orbit's B-signature (Lemma 2.1), and the orbit of a node
// outside the edited components never meets an edited node — components
// partition the pseudo-forest and orbits stay inside their component. So
// only the components containing edited nodes can change. The dirty
// region is widened to also include the components of the edits' new
// F-targets, which makes it closed under the edited function (every
// unedited edge stays inside its old component; every edited edge lands
// in an included component). Closure means the recompute needs no
// boundary handling at all: it is the full decomposition run on the
// region as a standalone sub-pseudo-forest.
//
// Why spliced labels stay globally consistent: equivalence classes span
// components (two cycles in different components can share a canonical
// string; two trees can share pair structure), so the recompute codes
// through two persistent injective coders that retain every assignment
// made since the last rebuild. Canonical cycle strings of period two or
// more map to a block of codes, one per offset; (parent code, B class)
// pairs map to a code in an open-addressing table, which also holds each
// period-one cycle under its class alone. A recomputed node whose
// structure matches a clean node's reaches the same entry and gets the
// same code; a new structure gets a fresh code, so codes stay injective
// across the clean/dirty boundary. Recomputation is therefore idempotent
// on unchanged nodes, and one O(n) first-occurrence renumber of the raw
// codes reproduces exactly the canonical labels a full solve emits.
// Stale entries (structures that no longer occur) waste code space but
// never correctness; a rebuild valve re-founds the state before the code
// space runs out.
//
// Every per-node array is int32, laid out as in the linear solver
// (DESIGN.md section 8 has the byte budget).
package incr

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"sfcp/internal/circ"
	"sfcp/internal/coarsest"
)

// Edit is one point mutation: retarget F[Node] and/or relabel B[Node].
// SetF/SetB say which halves apply; an edit setting neither is rejected.
type Edit struct {
	Node int  `json:"node"`
	F    int  `json:"f,omitempty"`
	B    int  `json:"b,omitempty"`
	SetF bool `json:"set_f,omitempty"`
	SetB bool `json:"set_b,omitempty"`
}

// Info reports what one delta application did.
type Info struct {
	// DirtyComponents and DirtyNodes size the invalidated region under
	// the pre-edit decomposition.
	DirtyComponents int
	DirtyNodes      int
	// DirtyFrac is DirtyNodes / n.
	DirtyFrac float64
	// Rebuilt reports that the call re-founded the whole state (the
	// Rebuild path, or ApplyDelta's code-exhaustion valve) instead of
	// recomputing only the dirty region.
	Rebuilt bool
	// NumClasses is the class count of the refreshed labeling.
	NumClasses int
}

// codeSlack sizes the persistent code space: codeSlack*n codes, capped
// at math.MaxInt32 so that every code fits an int32. A full solve needs
// at most n codes, and a region pass at most one per region node, so a
// delta runs incrementally only while that many codes are still free;
// otherwise it rebuilds, which resets the space to at most n live codes.
// The renumber table is the scratch pair cyc/rank, 2n int32s, so the
// code space costs no memory of its own.
const codeSlack = 2

// Tags of State.cyc; cycle ids are non-negative.
const (
	unseen   = -1 // not walked yet this pass
	onPath   = -2 // on the current walk
	tree     = -3 // a tree node not resolved yet
	unmarked = -4 // a tree node outside the marked set
	listed   = -5 // dirtyLeaders: a leader already collected
)

// cycle is one row of per-cycle facts: the cycle's nodes are
// seq[start : start+len], in rank order.
type cycle struct {
	start, len int32
}

// State is the reusable decomposition of one instance. It owns private
// copies of F and B and mutates them as deltas apply. Not safe for
// concurrent use; callers serialize access per state.
type State struct {
	n int

	// The instance: F, and B as classes. A label below 2^31 is its own
	// class; a wider one is wide[-1-class].
	f, cls []int32

	// comp is a node's component leader, a node of its cycle; a leader
	// holds minus its component's size instead. link threads each
	// component's members into a ring through its leader.
	comp, link []int32
	// raw is the persistent Q-code; labels its first-occurrence renumber.
	raw, labels []int32
	classes     int

	// Persistent coders. Pair codes count up from 0 and cycle codes of
	// period two or more count down from limit, so codes are free while
	// next <= low. keys[c] is pair code c's (parent code+1, class) key;
	// slots is the open-addressing table over it, holding code+1 (0 =
	// empty) at load at most 3/4; shift turns a hash into a slot.
	keys  []uint64
	slots []int32
	shift uint
	// canon maps a canonical cycle string to its lowest code; canonBytes
	// sums its keys' lengths.
	canon      map[string]int32
	canonBytes int
	low, limit int32
	// wide interns labels of 2^31 and above, at most wideMax of them;
	// wideIdx is its inverse.
	wide    []int
	wideIdx map[int]int32
	wideMax int
	// recode asks the next delta to rebuild: interning a wide label
	// compacted wide and so renamed the classes the coders hold.
	recode bool

	// work is cyc followed by rank during a pass, and the code -> label+1
	// table of renumber (codes stay below limit <= 2n).
	work []int32
	// cyc is the cycle id of a cycle node or a marked tree node (that of
	// its root's cycle); otherwise one of the tags. rank is a cycle
	// node's rank on its cycle and a marked tree node's counterpart's.
	cyc, rank []int32

	// Region scratch, kept between deltas only while it stays within
	// maxKeptRegion. seq holds the cycle nodes, cycle after cycle in rank
	// order; path is the walk stack and a cycle's class string; aux holds
	// the cycle starts, then the KMP failure table.
	region, path, seq, aux []int32
	rows                   []cycle
	leaders                []int32
	key                    []byte
}

// Build runs one full solve of ins and returns its reusable
// decomposition state. The instance is copied; later edits to the
// caller's slices do not affect the state.
func Build(ins coarsest.Instance) (*State, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	n := len(ins.F)
	s := &State{
		f:       make([]int32, n),
		cls:     make([]int32, n),
		wideIdx: make(map[int]int32),
		wideMax: math.MaxInt32,
	}
	for x, y := range ins.F {
		s.f[x] = int32(y)
	}
	for x, v := range ins.B {
		s.cls[x] = s.class(v)
	}
	s.init()
	return s, nil
}

// N returns the instance size.
func (s *State) N() int { return s.n }

// Labels returns the current canonical labels. The slice is owned by the
// state and overwritten by the next delta; callers that retain it must
// copy.
func (s *State) Labels() []int32 { return s.labels }

// NumClasses returns the current class count.
func (s *State) NumClasses() int { return s.classes }

// Snapshot returns a copy of the current (post-edit) instance, with B's
// labels exactly as given.
func (s *State) Snapshot() coarsest.Instance {
	ins := coarsest.Instance{F: make([]int, s.n), B: make([]int, s.n)}
	for x, y := range s.f {
		ins.F[x] = int(y)
	}
	for x, c := range s.cls {
		if c >= 0 {
			ins.B[x] = int(c)
		} else {
			ins.B[x] = s.wide[-1-c]
		}
	}
	return ins
}

// DirtyStats sizes the region a delta would invalidate — the components
// of the edited nodes and of their new F-targets, under the current
// decomposition — without applying it. This is the planner's input for
// choosing between ApplyDelta and Rebuild.
func (s *State) DirtyStats(edits []Edit) (nodes, comps int, err error) {
	if err := s.validateEdits(edits); err != nil {
		return 0, 0, err
	}
	leaders := s.dirtyLeaders(edits)
	return s.size(leaders), len(leaders), nil
}

// ApplyDelta applies the edits and recomputes labels by re-running the
// decomposition on the dirty region only. Output labels are
// byte-identical to a full solve of the edited instance. The state's
// persistent code space fills with structural churn; when the dirty
// region could outrun it the call transparently rebuilds instead
// (Info.Rebuilt). The returned slice is owned by the state (see Labels).
func (s *State) ApplyDelta(edits []Edit) ([]int32, Info, error) {
	if err := s.validateEdits(edits); err != nil {
		return nil, Info{}, err
	}
	if len(edits) == 0 {
		return s.labels, Info{NumClasses: s.classes}, nil
	}
	leaders := s.dirtyLeaders(edits)
	info := Info{DirtyComponents: len(leaders), DirtyNodes: s.size(leaders)}
	info.DirtyFrac = float64(info.DirtyNodes) / float64(s.n)

	// The region is gathered before the edits land: they do not move
	// nodes between the dirty components' rings.
	region := s.region[:0]
	for _, l := range leaders {
		for x := l; ; {
			region = append(region, x)
			if x = s.link[x]; x == l {
				break
			}
		}
	}
	s.region = region
	s.applyEdits(edits)

	if s.recode || int(s.low-int32(len(s.keys))) < len(region) {
		s.init()
		info.Rebuilt = true
	} else {
		s.solveRegion(region)
		s.renumber()
	}
	info.NumClasses = s.classes
	return s.labels, info, nil
}

// Rebuild applies the edits and re-founds the whole state with a full
// solve — the planner's fallback when the dirty fraction makes the
// incremental path a loss. The returned slice is owned by the state.
func (s *State) Rebuild(edits []Edit) ([]int32, Info, error) {
	if err := s.validateEdits(edits); err != nil {
		return nil, Info{}, err
	}
	leaders := s.dirtyLeaders(edits)
	info := Info{DirtyComponents: len(leaders), DirtyNodes: s.size(leaders), Rebuilt: true}
	if s.n > 0 {
		info.DirtyFrac = float64(info.DirtyNodes) / float64(s.n)
	}
	s.applyEdits(edits)
	s.init()
	info.NumClasses = s.classes
	return s.labels, info, nil
}

func (s *State) validateEdits(edits []Edit) error {
	for i, e := range edits {
		if e.Node < 0 || e.Node >= s.n {
			return fmt.Errorf("incr: edit %d: node %d out of range [0,%d)", i, e.Node, s.n)
		}
		if !e.SetF && !e.SetB {
			return fmt.Errorf("incr: edit %d: sets neither F nor B", i)
		}
		if e.SetF && (e.F < 0 || e.F >= s.n) {
			return fmt.Errorf("incr: edit %d: F target %d out of range [0,%d)", i, e.F, s.n)
		}
		if e.SetB && e.B < 0 {
			return fmt.Errorf("incr: edit %d: B label %d negative", i, e.B)
		}
	}
	return nil
}

// leaderOf returns the leader of x's component.
func (s *State) leaderOf(x int32) int32 {
	if l := s.comp[x]; l >= 0 {
		return l
	}
	return x
}

// size sums the sizes of the given components.
func (s *State) size(leaders []int32) int {
	nodes := 0
	for _, l := range leaders {
		nodes += int(-s.comp[l])
	}
	return nodes
}

// dirtyLeaders collects, once each, the component leaders a delta
// invalidates under the pre-edit decomposition: the edited nodes'
// components (which also cover the old F-targets — a node and its old
// target share a component) and the new F-targets' components (which
// closes the region under the edited function). Between passes cyc is
// free, so it tags the leaders collected so far.
func (s *State) dirtyLeaders(edits []Edit) []int32 {
	leaders := s.leaders[:0]
	for _, e := range edits {
		for i, x := range [2]int{e.Node, e.F} {
			if i == 1 && !e.SetF {
				break
			}
			if l := s.leaderOf(int32(x)); s.cyc[l] != listed {
				s.cyc[l] = listed
				leaders = append(leaders, l)
			}
		}
	}
	for _, l := range leaders {
		s.cyc[l] = unseen
	}
	s.leaders = leaders
	return leaders
}

func (s *State) applyEdits(edits []Edit) {
	for _, e := range edits {
		if e.SetF {
			s.f[e.Node] = int32(e.F)
		}
		if e.SetB {
			if _, ok := s.wideIdx[e.B]; !ok && e.B > math.MaxInt32 && len(s.wide) >= s.wideMax {
				// No class is left for a new wide label: drop the ones no
				// other node carries. That renames the live ones, so the
				// delta must rebuild.
				s.cls[e.Node] = 0
				s.compactWide()
				s.recode = true
			}
			s.cls[e.Node] = s.class(e.B)
		}
	}
}

// class returns the B class of label v: v itself below 2^31, otherwise
// -1-k for the k-th wide label interned.
func (s *State) class(v int) int32 {
	if v <= math.MaxInt32 {
		return int32(v)
	}
	k, ok := s.wideIdx[v]
	if !ok {
		k = int32(len(s.wide))
		s.wideIdx[v] = k
		s.wide = append(s.wide, v)
	}
	return -1 - k
}

// compactWide re-interns the wide labels that nodes still carry,
// dropping the ones edits have overwritten.
func (s *State) compactWide() {
	if len(s.wide) == 0 {
		return
	}
	old := s.wide
	s.wide = nil
	s.wideIdx = make(map[int]int32)
	for x, c := range s.cls {
		if c < 0 {
			s.cls[x] = s.class(old[-1-c])
		}
	}
}

// init (re)founds the state from the current f/cls: empty coders, one
// full-region solve, canonical renumber.
func (s *State) init() {
	n := len(s.f)
	s.n = n
	s.limit = math.MaxInt32
	if n <= math.MaxInt32/codeSlack {
		s.limit = int32(codeSlack * n)
	}
	s.compactWide()
	s.recode = false
	s.comp = grow(s.comp, n)
	s.link = grow(s.link, n)
	s.raw = grow(s.raw, n)
	s.labels = grow(s.labels, n)
	s.work = grow(s.work, 2*n)
	s.cyc, s.rank = s.work[:n], s.work[n:]

	s.keys = s.keys[:0]
	if s.slots == nil {
		s.growSlots()
	}
	clear(s.slots)
	// A fresh map: a cleared one would keep its peak size.
	s.canon = make(map[string]int32)
	s.canonBytes = 0
	s.low = s.limit

	region := grow(s.region, n)
	for i := range region {
		region[i] = int32(i)
	}
	s.solveRegion(region)
	s.renumber()
}

// solveRegion runs the linear decomposition on a region closed under f —
// the whole instance (init) or a union of dirty components (ApplyDelta)
// — assigning raw codes through the persistent coders and rebuilding
// comp and link for the region's nodes. Region nodes must be distinct.
func (s *State) solveRegion(region []int32) {
	s.findCycles(region)
	s.codeCycles()
	s.codeTrees(region)

	// Thread every non-leader into its leader's ring. Leaders hold -1
	// from findCycles and count down.
	comp, link := s.comp, s.link
	for _, x := range region {
		if l := comp[x]; l >= 0 {
			link[x], link[l] = link[l], x
			comp[l]--
		}
	}
	if len(region) > s.n/maxKeptRegion {
		s.region, s.path, s.seq, s.aux, s.rows = nil, nil, nil, nil, nil
	}
}

// maxKeptRegion bounds the region scratch a state keeps, at n/maxKeptRegion
// nodes. A delta's region is usually far smaller; a larger one — the full
// solve's, or one the planner would send to Rebuild — allocates its
// scratch (16 B per region node) for that pass alone instead of holding it
// for the life of the session.
const maxKeptRegion = 8

// findCycles walks forward from every unseen region node until it meets a
// node seen before. If that node is on the current walk, the walk's
// suffix from it is a new cycle, already in rank order, whose first node
// leads the new component; every other node of the walk is a tree node.
func (s *State) findCycles(region []int32) {
	f, cyc, rank, comp, link := s.f, s.cyc, s.rank, s.comp, s.link
	seq := grow(s.seq, len(region))
	path := grow(s.path, len(region))
	starts := grow(s.aux, len(region)+1)
	s.seq, s.path, s.aux = seq, path, starts
	for _, x := range region {
		cyc[x] = unseen
	}
	k, nseq := int32(0), int32(0)
	for _, st := range region {
		if cyc[st] != unseen {
			continue
		}
		np := 0
		x := st
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
				comp[y] = x
				seq[nseq] = y
				nseq++
			}
			comp[x], link[x] = -1, x
			k++
			np = i
		}
		for _, y := range path[:np] {
			cyc[y] = tree
		}
	}
	starts[k] = nseq
	s.rows = grow(s.rows, int(k))
	for c := range s.rows {
		s.rows[c] = cycle{start: starts[c], len: starts[c+1] - starts[c]}
	}
}

// codeCycles codes the cycle nodes. Each cycle's class string is reduced
// to its smallest repeating prefix (KMP) and rotated to its least
// rotation (Duval); nodes at equal offsets of equal canonical strings are
// equivalent. A period-one string is a single class, coded as a pair with
// parent code -1; a longer one maps through canon to a block of codes,
// one per offset, allocated down from low.
func (s *State) codeCycles() {
	cls, raw, seq, str, fail := s.cls, s.raw, s.seq, s.path, s.aux
	key := s.key
	for _, row := range s.rows {
		nodes := seq[row.start : row.start+row.len]
		str := str[:len(nodes)]
		for i, y := range nodes {
			str[i] = cls[y]
		}
		p := circ.SmallestRepeatingPrefixBuf(str, fail)
		msp := circ.DuvalMSP(str[:p])
		var base int32
		if p == 1 {
			base = s.pairCode(-1, str[0])
		} else {
			// The rotated prefix goes into the reusable key buffer as
			// varints; the lookup on string(key) does not allocate, and a
			// string is materialized only when the class is new.
			key = key[:0]
			for _, v := range str[msp:p] {
				key = binary.AppendUvarint(key, uint64(uint32(v)))
			}
			for _, v := range str[:msp] {
				key = binary.AppendUvarint(key, uint64(uint32(v)))
			}
			b, ok := s.canon[string(key)]
			if !ok {
				s.low -= int32(p)
				b = s.low
				s.canon[string(key)] = b
				s.canonBytes += len(key)
			}
			base = b
		}
		off, per := int32((p-msp)%p), int32(p)
		for _, y := range nodes {
			raw[y] = base + off
			if off++; off == per {
				off = 0
			}
		}
	}
	s.key = key
}

// codeTrees codes the tree nodes: Lemma 4.1's marking and Lemma 4.2's
// pair coding in one sweep. A walk climbs to the first resolved node and
// resolves its path on the way back down, so every node is resolved after
// its parent. The counterpart of a marked node's child sits one rank back
// on the cycle; a child whose class matches it is marked and takes its
// code, any other child the code of its (parent code, class) pair. The
// pair coder persists across passes, so coding needs no depth order.
func (s *State) codeTrees(region []int32) {
	f, cls, cyc, rank, raw, comp, seq, path, rows := s.f, s.cls, s.cyc, s.rank, s.raw, s.comp, s.seq, s.path, s.rows
	for _, st := range region {
		if cyc[st] != tree {
			continue
		}
		np := 0
		for x := st; cyc[x] == tree; x = f[x] {
			path[np] = x
			np++
		}
		for i := np - 1; i >= 0; i-- {
			x := path[i]
			p := f[x]
			comp[x] = s.leaderOf(p)
			if c := cyc[p]; c >= 0 {
				row := rows[c]
				r := rank[p] - 1
				if r < 0 {
					r += row.len
				}
				if y := seq[row.start+r]; cls[x] == cls[y] {
					cyc[x], rank[x], raw[x] = c, r, raw[y]
					continue
				}
			}
			cyc[x] = unmarked
			raw[x] = s.pairCode(raw[p], cls[x])
		}
	}
}

// hashMul is the 64-bit golden-ratio multiplier of Fibonacci hashing.
const hashMul = 0x9e3779b97f4a7c15

// pairCode returns the code of the (parent code, class) pair, minting the
// next pair code when the pair is new.
func (s *State) pairCode(parent, class int32) int32 {
	key := uint64(uint32(parent+1))<<32 | uint64(uint32(class))
	mask := uint64(len(s.slots) - 1)
	for h := (key * hashMul) >> s.shift; ; h = (h + 1) & mask {
		e := s.slots[h]
		if e == 0 {
			c := int32(len(s.keys))
			if len(s.keys) == cap(s.keys) {
				// Grow by a quarter, never past the code space.
				grown := make([]uint64, len(s.keys), min(len(s.keys)+len(s.keys)/4+16, int(s.limit)))
				copy(grown, s.keys)
				s.keys = grown
			}
			s.keys = append(s.keys, key)
			s.slots[h] = c + 1
			if 4*len(s.keys) > 3*len(s.slots) {
				s.growSlots()
			}
			return c
		}
		if s.keys[e-1] == key {
			return e - 1
		}
	}
}

// growSlots doubles the pair table (16 slots at first) and re-inserts
// every pair code from keys.
func (s *State) growSlots() {
	size := max(16, 2*len(s.slots))
	s.slots = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for c, key := range s.keys {
		h := (key * hashMul) >> s.shift
		for s.slots[h] != 0 {
			h = (h + 1) & mask
		}
		s.slots[h] = int32(c) + 1
	}
}

// renumber converts the persistent raw codes into canonical
// first-occurrence labels, in place — the same normal form every full
// solver emits, which is what makes spliced output byte-identical.
func (s *State) renumber() {
	ids := s.work[:s.limit]
	clear(ids[:len(s.keys)])
	clear(ids[s.low:])
	next := int32(0)
	for x, c := range s.raw {
		id := ids[c]
		if id == 0 {
			next++
			id = next
			ids[c] = id
		}
		s.labels[x] = id - 1
	}
	s.classes = int(next)
}

// mapEntryBytes estimates what a Go map spends per entry beyond its key
// bytes (slot, control byte and load-factor slack).
const mapEntryBytes = 48

// footprint returns the bytes the state retains: slice capacities, plus
// the canonical strings and an estimate per map entry.
func (s *State) footprint() int {
	b := 0
	for _, buf := range [][]int32{s.f, s.cls, s.comp, s.link, s.raw, s.labels, s.work, s.slots, s.region, s.path, s.seq, s.aux, s.leaders} {
		b += 4 * cap(buf)
	}
	b += 8 * (cap(s.keys) + cap(s.rows) + cap(s.wide))
	return b + cap(s.key) + s.canonBytes + mapEntryBytes*(len(s.canon)+len(s.wideIdx))
}

// grow returns buf resized to n, reallocated only when it is too small
// (or nil, so that an empty instance still has non-nil labels).
func grow[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
