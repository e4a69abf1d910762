package sfcp

import (
	"fmt"
	"sync"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/engine"
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

// Delta is a batch of edits Resolve applies atomically: the dirty set is
// computed for the batch as a whole and the solve runs once.
type Delta struct {
	Edits []Edit `json:"edits"`
}

// Resolve modes reported in ResolveInfo.Mode and the
// sfcpd_resolve_total{mode=...} metric.
const (
	// ResolveModeIncremental recomputed only the dirty components.
	ResolveModeIncremental = engine.ResolveIncremental
	// ResolveModeFullFallback rebuilt the whole decomposition (dirty
	// fraction above the calibrated crossover, or code-space exhaustion).
	ResolveModeFullFallback = engine.ResolveFullFallback
)

// ResolveInfo explains how a delta was applied — the mutation-side
// counterpart of Result.Plan.
type ResolveInfo struct {
	// Mode is ResolveModeIncremental or ResolveModeFullFallback.
	Mode string `json:"mode"`
	// Reason is the planner's human-readable decision trace.
	Reason string `json:"reason"`
	// DirtyComponents and DirtyNodes size the region the delta
	// invalidated under the pre-edit decomposition; DirtyFrac is
	// DirtyNodes over the instance size.
	DirtyComponents int     `json:"dirty_components"`
	DirtyNodes      int     `json:"dirty_nodes"`
	DirtyFrac       float64 `json:"dirty_frac"`
	// Duration is the apply stage's wall clock.
	Duration time.Duration `json:"resolve_ns"`
}

// Incremental is a versioned solve session: the reusable decomposition
// state of one instance, advanced in place by Resolve. Labels at every
// version are byte-identical to a full solve of that version. Methods
// are safe for concurrent use; Resolve calls serialize.
type Incremental struct {
	mu sync.Mutex
	st *incr.State
}

// NewIncremental solves ins once and returns the session holding its
// decomposition state. The instance is copied.
func NewIncremental(ins Instance) (*Incremental, error) {
	st, err := engine.NewIncremental(coarsest.Instance{F: ins.F, B: ins.B})
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

// Labels returns a copy of the current version's canonical labels.
func (inc *Incremental) Labels() []int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return widen(inc.st.Labels())
}

// NumClasses returns the current version's class count.
func (inc *Incremental) NumClasses() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.st.NumClasses()
}

// Instance returns a copy of the current (post-edit) instance — the
// version whose digest addresses this session's latest labels.
func (inc *Incremental) Instance() Instance {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	snap := inc.st.Snapshot()
	return Instance{F: snap.F, B: snap.B}
}

// Resolve applies a delta to the session and returns the refreshed
// result. The planner resolves between the component-scoped incremental
// path and a full re-solve from the delta's dirty fraction against the
// calibrated crossover (Result.Resolve reports the decision); either way
// the labels are byte-identical to a full solve of the edited instance.
// The session advances in place: after Resolve it describes the edited
// version (re-resolving an old version needs a session rebuilt from that
// version's instance).
func Resolve(prev *Incremental, delta Delta) (Result, error) {
	if prev == nil {
		return Result{}, fmt.Errorf("sfcp: Resolve on nil session")
	}
	edits, err := toIncrEdits(delta.Edits)
	if err != nil {
		return Result{}, err
	}
	prev.mu.Lock()
	defer prev.mu.Unlock()
	out, err := engine.ResolveDelta(prev.st, edits)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Labels:     widen(out.Labels),
		NumClasses: out.NumClasses,
		Resolve: &ResolveInfo{
			Mode:            out.Plan.Mode,
			Reason:          out.Plan.Reason,
			DirtyComponents: out.Plan.DirtyComponents,
			DirtyNodes:      out.Plan.DirtyNodes,
			DirtyFrac:       out.Plan.DirtyFrac,
			Duration:        out.Duration,
		},
		Timings: Timings{Solve: out.Duration},
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
