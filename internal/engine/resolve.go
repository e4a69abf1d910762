package engine

import (
	"fmt"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
)

// Resolve modes: how a delta was (or will be) applied. The names are the
// metric label values of sfcpd_resolve_total{mode=...}.
const (
	// ResolveIncremental recomputes only the dirty components and splices.
	ResolveIncremental = "incremental"
	// ResolveFullFallback rebuilds the whole decomposition — chosen when
	// the dirty fraction is above incrCrossover, or forced by the state's
	// code-exhaustion valve mid-delta.
	ResolveFullFallback = "full_fallback"
)

// ResolvePlan is the planner's explainable decision for one delta,
// mirroring Plan for solves: a concrete mode and the dirty-set
// measurements behind it.
type ResolvePlan struct {
	Mode            string  `json:"mode"`
	Reason          string  `json:"reason"`
	DirtyComponents int     `json:"dirty_components"`
	DirtyNodes      int     `json:"dirty_nodes"`
	DirtyFrac       float64 `json:"dirty_frac"`
}

// ResolveOutcome is ResolveDelta's full result: the refreshed labels
// (owned by the state — copy to retain), class count, the plan, what the
// application actually did, and the wall time of the apply stage.
type ResolveOutcome struct {
	Labels     []int32
	NumClasses int
	Plan       ResolvePlan
	Info       incr.Info
	Duration   time.Duration
}

// NewIncremental builds the reusable decomposition state for an
// instance — the engine's only construction point for the incremental
// solver (sfcpvet enginedispatch enforces this).
func NewIncremental(in coarsest.Instance) (*incr.State, error) {
	return incr.Build(in)
}

// incrCrossover is the dirty fraction above which ResolveDelta runs
// incr.State.Rebuild on all n nodes instead of ApplyDelta on the dirty
// region. Both arms run the same incr decomposition. ApplyDelta's share
// of Rebuild's time grows with the dirty fraction (BENCH_A8.json's
// incr_ns against rebuild_ns), and it keeps every code it mints, so a
// large region also grows the session, while Rebuild empties the
// coders. Moving the value trades time for session bytes; a new value
// needs both measured.
const incrCrossover = 0.3

// PlanResolve sizes a delta's dirty set against the state's current
// decomposition and resolves incremental-vs-full against incrCrossover.
// Deterministic in (state, edits).
func PlanResolve(st *incr.State, edits []incr.Edit) (ResolvePlan, error) {
	nodes, comps, err := st.DirtyStats(edits)
	if err != nil {
		return ResolvePlan{}, err
	}
	n := st.N()
	frac := 0.0
	if n > 0 {
		frac = float64(nodes) / float64(n)
	}
	rp := ResolvePlan{
		DirtyComponents: comps,
		DirtyNodes:      nodes,
		DirtyFrac:       frac,
	}
	if frac > incrCrossover {
		rp.Mode = ResolveFullFallback
		rp.Reason = fmt.Sprintf("auto: dirty fraction %.3f (%d/%d nodes across %d components) above crossover %.2f; full re-solve rebuilds the decomposition",
			frac, nodes, n, comps, incrCrossover)
	} else {
		rp.Mode = ResolveIncremental
		rp.Reason = fmt.Sprintf("auto: dirty fraction %.3f (%d/%d nodes across %d components) within crossover %.2f; component-scoped incremental re-solve",
			frac, nodes, n, comps, incrCrossover)
	}
	return rp, nil
}

// ResolveDelta plans and applies one delta against the state: the
// engine's front door for mutation, as Run is for solves. The state is
// consumed forward — it afterwards describes the edited instance.
func ResolveDelta(st *incr.State, edits []incr.Edit) (ResolveOutcome, error) {
	plan, err := PlanResolve(st, edits)
	if err != nil {
		return ResolveOutcome{}, err
	}
	t0 := time.Now()
	var labels []int32
	var info incr.Info
	if plan.Mode == ResolveIncremental {
		labels, info, err = st.ApplyDelta(edits)
		if err == nil && info.Rebuilt {
			// The code-exhaustion valve overrode the incremental choice;
			// report what actually ran.
			plan.Mode = ResolveFullFallback
			plan.Reason += "; persistent code space exhausted, state rebuilt"
		}
	} else {
		labels, info, err = st.Rebuild(edits)
	}
	if err != nil {
		return ResolveOutcome{}, err
	}
	return ResolveOutcome{
		Labels:     labels,
		NumClasses: info.NumClasses,
		Plan:       plan,
		Info:       info,
		Duration:   time.Since(t0),
	}, nil
}
