package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"sfcp/internal/calib"
	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
)

// Resolve modes: how a delta was (or will be) applied. The names are the
// metric label values of sfcpd_resolve_total{mode=...}.
const (
	// ResolveIncremental recomputes only the dirty components and splices.
	ResolveIncremental = "incremental"
	// ResolveFullFallback rebuilds the whole decomposition — chosen when
	// the dirty fraction crosses the calibrated threshold, or forced by
	// the state's code-exhaustion valve mid-delta.
	ResolveFullFallback = "full_fallback"
)

// ResolvePlan is the planner's explainable decision for one delta,
// mirroring Plan for solves: a concrete mode, the dirty-set measurements
// behind it, and the threshold source.
type ResolvePlan struct {
	Mode            string  `json:"mode"`
	Reason          string  `json:"reason"`
	DirtyComponents int     `json:"dirty_components"`
	DirtyNodes      int     `json:"dirty_nodes"`
	DirtyFrac       float64 `json:"dirty_frac"`
	ProfileSource   string  `json:"profile_source,omitempty"`
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

// activeProfile is the process-wide planner profile. Nil means the
// built-in defaults; SetProfile stores a fitted one. Delta re-solves
// read it on every Auto resolve plan, so the pointer is atomic rather
// than locked.
var activeProfile atomic.Pointer[calib.Profile]

// SetProfile installs the calibration profile the resolve planner
// (PlanResolve) consults. Passing nil reverts to the built-in defaults.
// The profile must be valid (calib.Profile.Validate).
func SetProfile(p *calib.Profile) {
	activeProfile.Store(p)
}

// ActiveProfile returns the profile the planner is currently consulting;
// never nil (the default profile stands in when none was injected).
func ActiveProfile() *calib.Profile {
	if p := activeProfile.Load(); p != nil {
		return p
	}
	return calib.Default()
}

// InstalledProfile returns exactly what SetProfile last stored — nil when
// the planner is on its built-in defaults. ActiveProfile is the consulting
// accessor; this one exists so a caller can save and restore the installed
// state without turning "defaults" into a pinned copy.
func InstalledProfile() *calib.Profile {
	return activeProfile.Load()
}

// NewIncremental builds the reusable decomposition state for an
// instance — the engine's only construction point for the incremental
// solver (sfcpvet enginedispatch enforces this).
func NewIncremental(in coarsest.Instance) (*incr.State, error) {
	return incr.Build(in)
}

// PlanResolve sizes a delta's dirty set against the state's current
// decomposition and resolves incremental-vs-full from the process-wide
// profile's crossover. Deterministic in (state, edits, profile).
func PlanResolve(st *incr.State, edits []incr.Edit) (ResolvePlan, error) {
	return PlanResolveWithProfile(st, edits, ActiveProfile())
}

// PlanResolveWithProfile is PlanResolve against an explicit profile, for
// callers and tests that must not depend on process-wide state. A nil
// profile means the built-in defaults.
func PlanResolveWithProfile(st *incr.State, edits []incr.Edit, prof *calib.Profile) (ResolvePlan, error) {
	if prof == nil {
		prof = calib.Default()
	}
	nodes, comps, err := st.DirtyStats(edits)
	if err != nil {
		return ResolvePlan{}, err
	}
	n := st.N()
	frac := 0.0
	if n > 0 {
		frac = float64(nodes) / float64(n)
	}
	crossover := prof.IncrCrossover()
	src := prof.Source()
	rp := ResolvePlan{
		DirtyComponents: comps,
		DirtyNodes:      nodes,
		DirtyFrac:       frac,
		ProfileSource:   src,
	}
	if frac > crossover {
		rp.Mode = ResolveFullFallback
		rp.Reason = fmt.Sprintf("auto: dirty fraction %.3f (%d/%d nodes across %d components) above crossover %.2f [%s profile]; full re-solve rebuilds the decomposition",
			frac, nodes, n, comps, crossover, src)
	} else {
		rp.Mode = ResolveIncremental
		rp.Reason = fmt.Sprintf("auto: dirty fraction %.3f (%d/%d nodes across %d components) within crossover %.2f [%s profile]; component-scoped incremental re-solve",
			frac, nodes, n, comps, crossover, src)
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
