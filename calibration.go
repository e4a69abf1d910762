package sfcp

import (
	"sfcp/internal/calib"
	"sfcp/internal/engine"
)

// CalibrationProfile is a fitted planner threshold: the dirty fraction
// above which Resolve abandons the incremental path for a full re-solve,
// stamped with the fingerprint of the host that fitted it. The zero
// value is unusable — obtain one from LoadCalibrationProfile or a
// `sfcpbench -calibrate` run.
type CalibrationProfile = calib.Profile

// LoadCalibrationProfile reads and validates a persisted profile. A
// corrupt, unknown-field, or version-skewed file is an error — callers
// that must never fail on a bad profile should keep the built-in
// defaults (SetCalibrationProfile(nil)).
func LoadCalibrationProfile(path string) (*CalibrationProfile, error) {
	return calib.Load(path)
}

// SetCalibrationProfile installs the profile the resolve planner
// consults process-wide when Resolve decides between an incremental and
// a full re-solve. Nil reverts to the built-in defaults.
// ResolveInfo.Reason names which source steered each decision.
func SetCalibrationProfile(p *CalibrationProfile) {
	engine.SetProfile(p)
}

// ActiveCalibrationProfile returns the profile the planner is currently
// consulting; never nil.
func ActiveCalibrationProfile() *CalibrationProfile {
	return engine.ActiveProfile()
}
