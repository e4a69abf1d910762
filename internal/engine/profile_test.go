package engine

import (
	"slices"
	"strings"
	"testing"

	"sfcp/internal/calib"
	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
	"sfcp/internal/workload"
)

// withIncrFrac returns a calibrated profile with the given crossover.
func withIncrFrac(frac float64) *calib.Profile {
	p := calib.Default()
	p.Calibrated = true
	p.IncrMaxDirtyFrac = frac
	return p
}

// resolveFixture builds k components of 16 nodes and an edit batch that
// relabels one node in each of the first dirty components, so the delta
// dirties exactly dirty/k of the instance. It returns the edited
// instance alongside the pre-edit state.
func resolveFixture(t *testing.T, k, dirty int) (*incr.State, []incr.Edit, coarsest.Instance) {
	t.Helper()
	wl := workload.DistinctCycles(11, k, 16, 3)
	st, err := incr.Build(coarsest.Instance{F: wl.F, B: wl.B})
	if err != nil {
		t.Fatal(err)
	}
	edited := coarsest.Instance{F: wl.F, B: append([]int(nil), wl.B...)}
	edits := make([]incr.Edit, dirty)
	for c := range edits {
		edits[c] = incr.Edit{Node: c * 16, SetB: true, B: 7}
		edited.B[c*16] = 7
	}
	return st, edits, edited
}

// widen copies a session's int32 labels into []int.
func widen(labels []int32) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}

// TestDifferentialUnderProfiles: whatever profile steers the resolve
// planner — default or either synthetic extreme — a delta's labels equal
// a full solve of the edited instance, and Auto solves stay on the
// linear solver. Profiles may change *which* mode runs, never *what* it
// computes.
func TestDifferentialUnderProfiles(t *testing.T) {
	defer SetProfile(InstalledProfile())
	profs := map[string]struct {
		prof *calib.Profile
		mode string
	}{
		"default":            {nil, ResolveIncremental},
		"always-incremental": {withIncrFrac(1), ResolveIncremental},
		"always-full":        {withIncrFrac(1e-6), ResolveFullFallback},
	}
	for pname, tc := range profs {
		SetProfile(tc.prof)
		st, edits, edited := resolveFixture(t, 64, 4)
		out, err := ResolveDelta(st, edits)
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		if out.Plan.Mode != tc.mode {
			t.Errorf("%s: mode %s, want %s (%s)", pname, out.Plan.Mode, tc.mode, out.Plan.Reason)
		}
		if want := coarsest.LinearSequential(edited); !slices.Equal(widen(out.Labels), want) {
			t.Errorf("%s: %s re-solve disagrees with a full solve of the edited instance", pname, out.Plan.Mode)
		}
		plan, err := MakePlan(edited, Request{Algorithm: Auto, Workers: 8})
		if err != nil || plan.Algorithm != Linear {
			t.Errorf("%s: auto plan = %+v (%v), want linear", pname, plan, err)
		}
	}
}

// TestProfileMovesCrossover pins that the injected profile — not the
// package default — decides the incremental-vs-full crossover, and that
// resolve plan reasons name their threshold source.
func TestProfileMovesCrossover(t *testing.T) {
	st, edits, _ := resolveFixture(t, 64, 6) // dirty fraction 6/64 ≈ 0.09

	def, err := PlanResolveWithProfile(st, edits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if def.Mode != ResolveIncremental {
		t.Fatalf("default profile at dirty fraction %.3f: %s, want incremental", def.DirtyFrac, def.Mode)
	}
	if def.ProfileSource != "default" || !strings.Contains(def.Reason, "[default profile]") {
		t.Errorf("default plan does not name its source: %+v", def)
	}

	cal, err := PlanResolveWithProfile(st, edits, withIncrFrac(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if cal.Mode != ResolveFullFallback {
		t.Fatalf("lowered crossover ignored: %s, want full_fallback", cal.Mode)
	}
	if cal.ProfileSource != "calibrated" || !strings.Contains(cal.Reason, "[calibrated profile]") {
		t.Errorf("calibrated plan does not name its source: %+v", cal)
	}
}

// TestSetProfileSteersResolve: the process-wide profile installed via
// SetProfile steers PlanResolve, and nil reverts to defaults.
func TestSetProfileSteersResolve(t *testing.T) {
	defer SetProfile(InstalledProfile())
	st, edits, _ := resolveFixture(t, 64, 6)

	SetProfile(withIncrFrac(0.05))
	if got := ActiveProfile(); !got.Calibrated {
		t.Fatal("ActiveProfile does not reflect SetProfile")
	}
	plan, err := PlanResolve(st, edits)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != ResolveFullFallback || plan.ProfileSource != "calibrated" {
		t.Errorf("installed profile not consulted: %+v", plan)
	}

	SetProfile(nil)
	if got := ActiveProfile(); got.Calibrated || got.IncrCrossover() != calib.DefaultIncrMaxDirtyFrac {
		t.Errorf("nil SetProfile did not revert to defaults: %+v", got)
	}
	if plan, err := PlanResolve(st, edits); err != nil || plan.Mode != ResolveIncremental {
		t.Errorf("default profile plan = %+v (%v), want incremental", plan, err)
	}
}
