// Package calib is the planner's calibration subsystem: the default
// incremental-vs-full crossover the delta re-solve planner keys on, a
// fitted Profile that replaces it on the deployment host, and the
// bounded sweep that fits one.
//
// The default was measured once on one machine; where the incremental
// path stops paying depends on the host's caches and memory bandwidth.
// Calibrate times component-scoped incremental re-solves against full
// re-solves across a sweep of dirty fractions and fits the crossover.
// Profiles persist as JSON (atomic rewrite) and carry a host fingerprint,
// so a checked-in or copied profile is always attributable to the
// hardware that fitted it.
package calib

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
)

// DefaultIncrMaxDirtyFrac is the dirty fraction above which an Auto
// re-solve falls back from the incremental path to a full solve: the
// incremental recompute codes through persistent maps (several times the
// full solver's array-backed per-node cost), so past roughly a third of
// the instance the full solve wins. Refit per host with
// `sfcpbench -calibrate`. It is the package-wide fallback when no fitted
// profile is installed, and the value a fit that measured nothing keeps.
const DefaultIncrMaxDirtyFrac = 0.3

// ProfileVersion is the persisted profile format version. Load rejects
// files whose version does not match — a skewed profile must fall back to
// defaults, never steer the planner with fields it misreads. Version 1
// also carried the native-parallel crossover fields, which no planner
// reads any more.
const ProfileVersion = 2

// HostFingerprint identifies the hardware a profile was fitted on, so
// checked-in trajectory snapshots and copied profile files are
// attributable.
type HostFingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// CPUModel is the "model name" line of /proc/cpuinfo when readable,
	// empty elsewhere (the field is best-effort by design).
	CPUModel string `json:"cpu_model,omitempty"`
}

// Fingerprint captures the current host.
func Fingerprint() HostFingerprint {
	return HostFingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel extracts the first "model name" value from /proc/cpuinfo,
// once per process: the model cannot change under a running process, and
// Default (and so every uncalibrated resolve plan and /metrics scrape)
// stamps it. Any failure (non-Linux, restricted /proc) yields "".
var cpuModel = sync.OnceValue(func() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
})

// Profile is a fitted set of planner thresholds. The zero value is not
// usable — construct via Default or Calibrate, or decode a persisted file
// through Load.
type Profile struct {
	// Version pins the persisted format (ProfileVersion).
	Version int `json:"version"`
	// IncrMaxDirtyFrac is the dirty fraction above which an Auto delta
	// re-solve abandons the incremental path for a full solve. 0 means
	// unset; IncrCrossover resolves it to the package default.
	IncrMaxDirtyFrac float64 `json:"incr_max_dirty_frac,omitempty"`
	// Host fingerprints the hardware that fitted this profile.
	Host HostFingerprint `json:"host"`
	// FittedAt is the RFC 3339 fit time (empty for the default profile).
	FittedAt string `json:"fitted_at,omitempty"`
	// Calibrated distinguishes a measured profile from the built-in
	// defaults; resolve plan reasons and the sfcpd_plan_calibrated gauge
	// report it.
	Calibrated bool `json:"calibrated"`
}

// Default returns the built-in profile: the package default, stamped
// with the current host fingerprint and Calibrated=false.
func Default() *Profile {
	return &Profile{
		Version:          ProfileVersion,
		IncrMaxDirtyFrac: DefaultIncrMaxDirtyFrac,
		Host:             Fingerprint(),
	}
}

// IncrCrossover resolves the effective incremental-vs-full crossover
// fraction: the fitted field when set, the package default otherwise.
func (p *Profile) IncrCrossover() float64 {
	if p != nil && p.IncrMaxDirtyFrac > 0 {
		return p.IncrMaxDirtyFrac
	}
	return DefaultIncrMaxDirtyFrac
}

// Source names where the profile's thresholds came from, for plan
// reasons and metrics: "calibrated" or "default".
func (p *Profile) Source() string {
	if p != nil && p.Calibrated {
		return "calibrated"
	}
	return "default"
}

// Validate rejects profiles the planner cannot use as-is: version skew
// or a crossover fraction outside [0, 1].
func (p *Profile) Validate() error {
	if p.Version != ProfileVersion {
		return fmt.Errorf("calib: profile version %d, want %d", p.Version, ProfileVersion)
	}
	if p.IncrMaxDirtyFrac < 0 || p.IncrMaxDirtyFrac > 1 {
		return fmt.Errorf("calib: incr_max_dirty_frac = %v, want 0..1", p.IncrMaxDirtyFrac)
	}
	return nil
}
