// The calibration experiment times the incremental state's two re-solve
// paths, ApplyDelta and Rebuild, against each other on a state built
// directly — routing them through the engine would measure the planner
// being fitted, a circular experiment (and an import cycle).
//
//sfcpvet:ignore-file enginedispatch -- calibration measures the raw solvers to fit the planner's thresholds; going through the engine would measure the planner instead (and cycle the import graph)
package calib

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
	"sfcp/internal/workload"
)

// Options configures a calibration run.
type Options struct {
	// Budget bounds the whole fit's wall clock (default 3s). A fit that
	// runs out of budget fits from the points it measured and marks the
	// report truncated — a bounded startup fit must never hold a server
	// hostage.
	Budget time.Duration
	// Seed drives the measurement workloads (default 1993).
	Seed int64
	// MaxN is the size of the instance the sweep re-solves (default
	// 1<<17; the floor is 1<<12). Smaller sizes make quicker, coarser
	// fits.
	MaxN int
	// Log, when non-nil, receives one line per measurement.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 3 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1993
	}
	if o.MaxN <= 0 {
		o.MaxN = 1 << 17
	}
	if o.MaxN < 1<<12 {
		o.MaxN = 1 << 12
	}
	return o
}

// IncrPoint is one row of the incremental re-solve sweep: best-of-reps
// wall time of a component-scoped delta application dirtying DirtyNodes
// of an n-element instance, against the full fallback on the same edits.
type IncrPoint struct {
	N          int     `json:"n"`
	DirtyNodes int     `json:"dirty_nodes"`
	DirtyFrac  float64 `json:"dirty_frac"`
	IncrNS     int64   `json:"incr_ns"`
	// FullNS times incr.State.Rebuild on the same edits: the full re-solve
	// engine.ResolveDelta runs when the dirty fraction is over the
	// crossover, including the rebuild of the session's incremental state.
	FullNS int64 `json:"full_ns"`
}

// Report is a full calibration outcome: the fitted profile plus the raw
// measurements behind it, so a checked-in BENCH_A6.json snapshot shows
// not just the threshold but the curve it was read off.
type Report struct {
	Profile Profile     `json:"profile"`
	Incr    []IncrPoint `json:"incr_resolve"`
	// Truncated reports that the budget expired before the sweep
	// finished; the fit used the points measured until then.
	Truncated bool `json:"truncated"`
	// Elapsed is the fit's total wall clock.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// incrFracs are the dirty fractions the sweep measures, ascending, so
// FitIncrCrossover can walk them and a truncated sweep keeps its
// low-fraction points.
var incrFracs = []float64{0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75}

// Calibrate runs the incremental re-solve sweep on this host and fits a
// Profile. It respects ctx and the budget: the fit reads whatever points
// completed before either expired. The returned error is non-nil only
// when not a single point completed (ctx already cancelled, or a
// pathological budget) — a partial fit is a valid, truncated report.
func Calibrate(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	start := time.Now()
	deadline := start.Add(opts.Budget)
	rep := &Report{}

	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	expired := func() bool {
		return ctx.Err() != nil || time.Now().After(deadline)
	}

	// DistinctCycles gives components of uniform size, so dirtying
	// floor(frac*k) of k components (at least one) hits each target dirty
	// fraction to within one component. The same edit batch re-applies
	// every rep on both arms: recomputing an already-applied delta is
	// idempotent and costs the same work, so both arms solve the same
	// version.
	const cycleLen = 64
	k := opts.MaxN / cycleLen
	n := k * cycleLen
	wl := workload.DistinctCycles(opts.Seed, k, cycleLen, 3)
	st, err := incr.Build(coarsest.Instance{F: wl.F, B: wl.B})
	if err != nil {
		return nil, fmt.Errorf("calib: building the sweep instance: %w", err)
	}
	reps := repsFor(n)
	for _, frac := range incrFracs {
		if expired() {
			rep.Truncated = true
			break
		}
		dirty := max(int(frac*float64(k)), 1)
		edits := make([]incr.Edit, dirty)
		for c := range edits {
			edits[c] = incr.Edit{Node: c * cycleLen, SetB: true, B: 7}
		}
		incrNS := bestOf(reps, func() {
			_, _, _ = st.ApplyDelta(edits)
		})
		fullNS := bestOf(reps, func() {
			_, _, _ = st.Rebuild(edits)
		})
		measured := float64(dirty*cycleLen) / float64(n)
		rep.Incr = append(rep.Incr, IncrPoint{
			N: n, DirtyNodes: dirty * cycleLen, DirtyFrac: measured,
			IncrNS: incrNS, FullNS: fullNS,
		})
		logf("calib: incr n=%d dirty=%.2f incr=%v full=%v",
			n, measured, time.Duration(incrNS), time.Duration(fullNS))
	}
	if len(rep.Incr) == 0 {
		return nil, fmt.Errorf("calib: no measurements inside budget %v: %w", opts.Budget, ctxErrOr(ctx))
	}

	p := Default()
	p.Calibrated = true
	p.FittedAt = start.UTC().Format(time.RFC3339)
	p.IncrMaxDirtyFrac, _ = FitIncrCrossover(rep.Incr)
	rep.Profile = *p
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	logf("calib: fitted incr_max_dirty_frac=%.3f truncated=%v", p.IncrMaxDirtyFrac, rep.Truncated)
	return rep, nil
}

func ctxErrOr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// repsFor shrinks best-of repetitions as instances grow: small solves
// are noisy and cheap to repeat, large ones are stable and expensive.
func repsFor(n int) int {
	switch {
	case n <= 1<<14:
		return 5
	case n <= 1<<16:
		return 3
	default:
		return 2
	}
}

// bestOf runs fn reps times and returns the fastest wall time in
// nanoseconds — min-of-reps sheds scheduler noise.
func bestOf(reps int, fn func()) int64 {
	best := int64(math.MaxInt64)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		if el := int64(time.Since(t0)); el < best {
			best = el
		}
	}
	return best
}

// FitIncrCrossover reads IncrMaxDirtyFrac off the incremental sweep:
// walking the ascending measured dirty fractions, the crossover is the
// midpoint between the last fraction where the incremental path still
// won and the first where the full solve did. If incremental wins at
// every measured fraction the crossover is the largest one measured (no
// extrapolation past the sweep); if it never wins the crossover collapses
// to the floor. Returns ok=false on an empty sweep (the default stands).
// Exposed so the fitting rule is unit-testable on synthetic
// measurements, independent of wall clocks.
func FitIncrCrossover(points []IncrPoint) (float64, bool) {
	if len(points) == 0 {
		return 0, false
	}
	const floor, ceil = 0.01, 0.95
	lastWin := 0.0
	for _, pt := range points {
		if pt.IncrNS >= pt.FullNS {
			if lastWin == 0 {
				return floor, true
			}
			return clampFrac((lastWin+pt.DirtyFrac)/2, floor, ceil), true
		}
		lastWin = pt.DirtyFrac
	}
	return clampFrac(lastWin, floor, ceil), true
}

func clampFrac(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
