package sfcp

import (
	"fmt"
	"sync"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
)

// Edit is one point mutation of an instance: retarget F[Node] and/or
// relabel B[Node]. A nil field leaves that half unchanged; an edit with
// both nil is rejected.
type Edit struct {
	Node int  `json:"node"`
	F    *int `json:"f,omitempty"`
	B    *int `json:"b,omitempty"`
}

// Delta is a batch of edits Apply and Resolve apply atomically: the dirty
// set is computed for the batch as a whole and the solve runs once.
type Delta struct {
	Edits []Edit `json:"edits"`
}

// Resolve modes reported in ResolveInfo.Mode and the
// sfcpd_resolve_total{mode=...} metric.
const (
	// ResolveModeIncremental recomputed only the dirty components.
	ResolveModeIncremental = "incremental"
	// ResolveModeFullFallback re-founded the whole decomposition: the
	// session's valve fired because the delta left no clean node, the
	// code space ran out, the wide-label table was compacted, or the
	// session would have passed its byte budget. Reason names the cause.
	ResolveModeFullFallback = "full_fallback"
)

// ResolveInfo explains how a delta was applied — the mutation-side
// counterpart of Result.Plan.
type ResolveInfo struct {
	// Mode is ResolveModeIncremental or ResolveModeFullFallback.
	Mode string `json:"mode"`
	// Reason is a human-readable trace: the dirty set and, for
	// ResolveModeFullFallback, the valve's cause.
	Reason string `json:"reason"`
	// DirtyComponents and DirtyNodes size the region the delta
	// invalidated under the pre-edit decomposition; DirtyFrac is
	// DirtyNodes over the instance size.
	DirtyComponents int     `json:"dirty_components"`
	DirtyNodes      int     `json:"dirty_nodes"`
	DirtyFrac       float64 `json:"dirty_frac"`
	// Duration is the apply stage's wall clock; it does not include
	// renumbering the labels.
	Duration time.Duration `json:"resolve_ns"`
}

// Incremental is a versioned solve session: the reusable decomposition
// state of one instance, advanced in place by Apply or Resolve. Labels at
// every version are byte-identical to a full solve of that version.
// Methods are safe for concurrent use; Apply and Resolve calls
// serialize.
type Incremental struct {
	mu sync.Mutex
	st *incr.State
}

// NewIncremental solves ins once and returns the session holding its
// decomposition state. The instance is copied.
func NewIncremental(ins Instance) (*Incremental, error) {
	st, err := incr.Build(coarsest.Instance(ins))
	if err != nil {
		return nil, err
	}
	return &Incremental{st: st}, nil
}

// N returns the instance size.
func (inc *Incremental) N() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.st.N()
}

// Labels returns a copy of the current version's canonical labels. The
// first read after a delta renumbers the session's codes, O(n); a second
// read before the next delta reuses that renumber and pays only the copy.
func (inc *Incremental) Labels() []int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return widen(inc.st.Labels())
}

// NumClasses returns the current version's class count. It is kept
// exact through every delta, so it needs no label read.
func (inc *Incremental) NumClasses() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.st.NumClasses()
}

// Digest returns the current version's content address: Instance().Digest()
// without the copy. The session hashes its instance the first time it is
// asked; after that a delta keeps the address current by rehashing only
// the fixed element ranges its edits touch, plus the root (DESIGN.md
// section 9).
func (inc *Incremental) Digest() string {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.st.Digest()
}

// Instance returns a copy of the current (post-edit) instance, O(n). To
// name the version, Digest costs only what the last edits touched.
func (inc *Incremental) Instance() Instance {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	snap := inc.st.Snapshot()
	return Instance{F: snap.F, B: snap.B}
}

// Apply applies a delta to the session and reports how. It re-solves
// only the components the delta dirties, unless the session's valve
// re-founds the whole decomposition instead (the ResolveInfo says which
// ran, and why), and it costs what the dirty region costs, not n: the
// labels are renumbered only when Labels reads them, and NumClasses stays
// exact without them. Either way the labels are byte-identical to a full
// solve of the edited instance.
// The session advances in place: after Apply it describes the edited
// version (re-resolving an old version needs a session rebuilt from that
// version's instance).
func (inc *Incremental) Apply(delta Delta) (*ResolveInfo, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.apply(delta)
}

// apply is Apply with inc.mu held. Duration times ApplyDelta alone.
func (inc *Incremental) apply(delta Delta) (*ResolveInfo, error) {
	edits, err := toIncrEdits(delta.Edits)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	info, err := inc.st.ApplyDelta(edits)
	if err != nil {
		return nil, err
	}
	out := &ResolveInfo{
		Mode:            ResolveModeIncremental,
		DirtyComponents: info.DirtyComponents,
		DirtyNodes:      info.DirtyNodes,
		DirtyFrac:       info.DirtyFrac,
		Duration:        time.Since(start),
	}
	out.Reason = fmt.Sprintf("dirty fraction %.3f (%d/%d nodes across %d components); ",
		info.DirtyFrac, info.DirtyNodes, inc.st.N(), info.DirtyComponents)
	if info.Refound != "" {
		out.Mode = ResolveModeFullFallback
		out.Reason += info.Refound + ", state re-founded"
	} else {
		out.Reason += "component-scoped incremental re-solve"
	}
	return out, nil
}

// Resolve applies a delta to the session, as Apply does, and returns the
// edited version's result with its labels, read under the same lock: the
// result is Apply's plus an O(n) renumber and copy. A caller that does
// not need every version's labels calls Apply, and Labels when it does.
func Resolve(prev *Incremental, delta Delta) (Result, error) {
	if prev == nil {
		return Result{}, fmt.Errorf("sfcp: Resolve on nil session")
	}
	prev.mu.Lock()
	defer prev.mu.Unlock()
	info, err := prev.apply(delta)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Labels:     widen(prev.st.Labels()),
		NumClasses: prev.st.NumClasses(),
		Resolve:    info,
		Timings:    Timings{Solve: info.Duration},
	}, nil
}

// widen copies a session's int32 labels into a new []int.
func widen(labels []int32) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}

// toIncrEdits converts the public pointer-style edits to the solver's
// flag-style form, rejecting empty edits up front.
func toIncrEdits(edits []Edit) ([]incr.Edit, error) {
	out := make([]incr.Edit, len(edits))
	for i, e := range edits {
		if e.F == nil && e.B == nil {
			return nil, fmt.Errorf("sfcp: delta edit %d (node %d) sets neither F nor B", i, e.Node)
		}
		ie := incr.Edit{Node: e.Node}
		if e.F != nil {
			ie.SetF, ie.F = true, *e.F
		}
		if e.B != nil {
			ie.SetB, ie.B = true, *e.B
		}
		out[i] = ie
	}
	return out, nil
}
