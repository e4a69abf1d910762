// Package calib is the planner's calibration subsystem: the one home of
// the crossover constants the adaptive planner keys on, a fitted Profile
// that replaces them on the deployment host, and the condensed A4-style
// experiment that fits one.
//
// The constants below were measured once on one machine; "as fast as the
// hardware allows" means re-measuring where the workload actually runs —
// a laptop's crossover is not a 64-core server's, and worker scaling
// saturates on memory bandwidth long before core count on most hosts.
// Calibrate runs a bounded crossover sweep (sequential linear-time solver
// vs the goroutine-parallel one across an n-bracket) plus a worker-scaling
// sweep that detects the bandwidth knee, and fits a Profile the engine's
// planner consults in place of the defaults. Profiles persist as JSON
// (atomic rewrite) and carry a host fingerprint, so a checked-in or
// copied profile is always attributable to the hardware that fitted it.
package calib

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
)

// The default planner thresholds — the package-wide fallback when no
// fitted profile is injected, and the seed values a truncated calibration
// falls back to field by field. Every crossover constant in the codebase
// lives here; the sfcpvet crossoverconst analyzer flags stray literals.
const (
	// DefaultMinParallelN is the instance size below which Auto never
	// picks the goroutine-parallel solver: below it the goroutine fan-out
	// and barrier overhead dominate regardless of core count.
	DefaultMinParallelN = 1 << 15
	// DefaultBreakEvenLogDivisor: the parallel solver's pointer-doubling
	// structure discovery does ~log2(n) near-linear passes, each costing
	// roughly a third of the linear solver's single pass — it needs about
	// log2(n)/3 effective cores to break even.
	DefaultBreakEvenLogDivisor = 3
	// DefaultWorkerGrain is the target elements per worker; spreading
	// fewer than this across extra goroutines costs more in startup and
	// barriers than the added parallelism returns.
	DefaultWorkerGrain = 1 << 14
	// DefaultIncrMaxDirtyFrac is the dirty fraction above which an Auto
	// re-solve falls back from the incremental path to a full solve: the
	// incremental recompute codes through persistent maps (several times
	// the full solver's array-backed per-node cost), so past roughly a
	// third of the instance the full solve wins. Refit per host with the
	// incremental sweep (`sfcpbench -calibrate`).
	DefaultIncrMaxDirtyFrac = 0.3
)

// ProfileVersion is the persisted profile format version. Load rejects
// files whose version does not match — a skewed profile must fall back to
// defaults, never steer the planner with fields it misreads.
const ProfileVersion = 1

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
// Default (and so every uncalibrated plan and /metrics scrape) stamps it.
// Any failure (non-Linux, restricted /proc) yields "".
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
	// MinParallelN is the instance size at which Auto starts considering
	// the goroutine-parallel solver.
	MinParallelN int `json:"min_parallel_n"`
	// BreakEvenLogDivisor d models the parallel solver's break-even core
	// count as ~log2(n)/d: larger d means parallel pays off with fewer
	// cores on this host.
	BreakEvenLogDivisor int `json:"break_even_log_divisor"`
	// WorkerGrain is the target elements per worker when sizing the
	// goroutine count to an instance.
	WorkerGrain int `json:"worker_grain"`
	// MaxUsefulWorkers caps the default worker budget where the
	// worker-scaling sweep found the memory-bandwidth knee — the point
	// where marginal throughput per added worker collapses even though
	// cores remain. 0 means no measured cap (budget stays GOMAXPROCS).
	MaxUsefulWorkers int `json:"max_useful_workers"`
	// IncrMaxDirtyFrac is the dirty fraction above which an Auto delta
	// re-solve abandons the incremental path for a full solve. 0 means
	// unfitted (profiles persisted before the incremental sweep existed);
	// IncrCrossover resolves it to the package default. Stays within the
	// version-1 format: old files decode with the field at 0.
	IncrMaxDirtyFrac float64 `json:"incr_max_dirty_frac,omitempty"`
	// Host fingerprints the hardware that fitted this profile.
	Host HostFingerprint `json:"host"`
	// FittedAt is the RFC 3339 fit time (empty for the default profile).
	FittedAt string `json:"fitted_at,omitempty"`
	// Calibrated distinguishes a measured profile from the built-in
	// defaults; Plan.Reason and the sfcpd_plan_calibrated gauge report it.
	Calibrated bool `json:"calibrated"`
}

// Default returns the built-in profile: the package constants, stamped
// with the current host fingerprint and Calibrated=false.
func Default() *Profile {
	return &Profile{
		Version:             ProfileVersion,
		MinParallelN:        DefaultMinParallelN,
		BreakEvenLogDivisor: DefaultBreakEvenLogDivisor,
		WorkerGrain:         DefaultWorkerGrain,
		IncrMaxDirtyFrac:    DefaultIncrMaxDirtyFrac,
		Host:                Fingerprint(),
	}
}

// IncrCrossover resolves the effective incremental-vs-full crossover
// fraction: the fitted field when set, the package default for profiles
// persisted before the incremental sweep existed.
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

// Validate rejects profiles whose fields would make the planner
// nonsensical (zero grain divides by zero; a negative crossover turns
// every solve parallel). Bounds are deliberately loose — synthetic
// extreme profiles are legitimate test inputs — but every field must be
// usable as-is.
func (p *Profile) Validate() error {
	if p.Version != ProfileVersion {
		return fmt.Errorf("calib: profile version %d, want %d", p.Version, ProfileVersion)
	}
	if p.MinParallelN < 1 {
		return fmt.Errorf("calib: min_parallel_n = %d, want >= 1", p.MinParallelN)
	}
	if p.BreakEvenLogDivisor < 1 || p.BreakEvenLogDivisor > 64 {
		return fmt.Errorf("calib: break_even_log_divisor = %d, want 1..64", p.BreakEvenLogDivisor)
	}
	if p.WorkerGrain < 1 {
		return fmt.Errorf("calib: worker_grain = %d, want >= 1", p.WorkerGrain)
	}
	if p.MaxUsefulWorkers < 0 {
		return fmt.Errorf("calib: max_useful_workers = %d, want >= 0", p.MaxUsefulWorkers)
	}
	if p.IncrMaxDirtyFrac < 0 || p.IncrMaxDirtyFrac > 1 {
		return fmt.Errorf("calib: incr_max_dirty_frac = %v, want 0..1", p.IncrMaxDirtyFrac)
	}
	return nil
}
