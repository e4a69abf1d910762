package engine

import (
	"fmt"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
)

// Resolve modes: how a delta was applied. The names are the metric label
// values of sfcpd_resolve_total{mode=...}.
const (
	// ResolveIncremental recomputed only the dirty components and spliced.
	ResolveIncremental = "incremental"
	// ResolveFullFallback means the session's valve re-founded the whole
	// decomposition (incr.Info.Refound names the cause).
	ResolveFullFallback = "full_fallback"
)

// ResolveOutcome is ResolveDelta's full result: the mode and an
// explainable reason, what the application did, and the wall time of the
// apply stage. The labels stay in the state until someone reads them
// (incr.State.Labels).
type ResolveOutcome struct {
	Mode     string
	Reason   string
	Info     incr.Info
	Duration time.Duration
}

// NewIncremental builds the reusable decomposition state for an
// instance — the engine's only construction point for the incremental
// solver (sfcpvet enginedispatch enforces this).
func NewIncremental(in coarsest.Instance) (*incr.State, error) {
	return incr.Build(in)
}

// ResolveDelta applies one delta to the state: the engine's front door
// for mutation, as Execute is for solves. The state is consumed forward —
// it afterwards describes the edited instance. There is no choice to
// make: ApplyDelta re-solves the dirty region unless its valve re-founds
// the state, and the mode reports which ran.
func ResolveDelta(st *incr.State, edits []incr.Edit) (ResolveOutcome, error) {
	t0 := time.Now()
	info, err := st.ApplyDelta(edits)
	if err != nil {
		return ResolveOutcome{}, err
	}
	out := ResolveOutcome{Mode: ResolveIncremental, Info: info, Duration: time.Since(t0)}
	out.Reason = fmt.Sprintf("dirty fraction %.3f (%d/%d nodes across %d components); ",
		info.DirtyFrac, info.DirtyNodes, st.N(), info.DirtyComponents)
	if info.Refound != "" {
		out.Mode = ResolveFullFallback
		out.Reason += info.Refound + ", state re-founded"
	} else {
		out.Reason += "component-scoped incremental re-solve"
	}
	return out, nil
}
