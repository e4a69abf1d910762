package calib

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDefaultProfileValidates(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("default profile invalid: %v", err)
	}
	if p.Calibrated {
		t.Error("default profile claims to be calibrated")
	}
	if p.Source() != "default" {
		t.Errorf("Source() = %q, want default", p.Source())
	}
	if p.IncrMaxDirtyFrac != DefaultIncrMaxDirtyFrac || p.IncrCrossover() != DefaultIncrMaxDirtyFrac {
		t.Errorf("default profile does not carry the default crossover: %+v", p)
	}
	var nilProfile *Profile
	if nilProfile.Source() != "default" {
		t.Error("nil profile must read as default")
	}
}

func TestFingerprintSane(t *testing.T) {
	fp := Fingerprint()
	if fp.GOMAXPROCS < 1 || fp.NumCPU < 1 {
		t.Errorf("implausible fingerprint: %+v", fp)
	}
	if fp.GOOS == "" || fp.GOARCH == "" {
		t.Errorf("fingerprint missing GOOS/GOARCH: %+v", fp)
	}
}

func TestValidateBounds(t *testing.T) {
	bad := []func(*Profile){
		func(p *Profile) { p.Version = ProfileVersion + 1 },
		func(p *Profile) { p.Version = 1 },
		func(p *Profile) { p.IncrMaxDirtyFrac = -0.1 },
		func(p *Profile) { p.IncrMaxDirtyFrac = 1.5 },
	}
	for i, mutate := range bad {
		p := Default()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: invalid profile passed validation: %+v", i, p)
		}
	}
}

// TestFitCrossover pins the crossover rule on synthetic sweeps: the
// midpoint between the last incremental win and the first loss, the
// largest measured fraction when incremental always wins, and the floor
// when it never does.
func TestFitCrossover(t *testing.T) {
	pt := func(frac float64, incrNS, fullNS int64) IncrPoint {
		return IncrPoint{DirtyFrac: frac, IncrNS: incrNS, FullNS: fullNS}
	}
	cases := []struct {
		name   string
		points []IncrPoint
		want   float64
		ok     bool
	}{
		{"empty sweep keeps default", nil, 0, false},
		{"clean crossover between 0.2 and 0.4",
			[]IncrPoint{pt(0.1, 10, 100), pt(0.2, 40, 100), pt(0.4, 150, 100)}, 0.3, true},
		{"incremental always wins: largest measured fraction",
			[]IncrPoint{pt(0.1, 10, 100), pt(0.75, 90, 100)}, 0.75, true},
		{"incremental never wins: floor",
			[]IncrPoint{pt(0.01, 200, 100), pt(0.05, 300, 100)}, 0.01, true},
		{"a win past the ceiling clamps to it",
			[]IncrPoint{pt(0.99, 10, 100)}, 0.95, true},
	}
	for _, tc := range cases {
		got, ok := FitIncrCrossover(tc.points)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: FitIncrCrossover = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// TestCalibrateQuick runs a real (tiny) fit end to end: the sweep must
// finish inside its budget, and the profile must carry the crossover it
// fits, validate, be marked calibrated, and carry this host's
// fingerprint.
func TestCalibrateQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("timing fit skipped in -short")
	}
	rep, err := Calibrate(context.Background(), Options{Budget: 500 * time.Millisecond, MaxN: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Profile
	if err := p.Validate(); err != nil {
		t.Fatalf("fitted profile invalid: %v\n%+v", err, p)
	}
	if !p.Calibrated || p.Source() != "calibrated" {
		t.Errorf("fitted profile not marked calibrated: %+v", p)
	}
	if p.Host.GOMAXPROCS == 0 || p.FittedAt == "" {
		t.Errorf("fitted profile missing host stamp or fit time: %+v", p)
	}
	if rep.Truncated || len(rep.Incr) != len(incrFracs) {
		t.Errorf("fit truncated=%v with %d of %d incremental points", rep.Truncated, len(rep.Incr), len(incrFracs))
	}
	if want, _ := FitIncrCrossover(rep.Incr); p.IncrMaxDirtyFrac != want {
		t.Errorf("profile incr_max_dirty_frac = %v, the sweep fits %v", p.IncrMaxDirtyFrac, want)
	}
}

// TestCalibrateCancelled: a context dead on arrival yields an error, not
// a fabricated profile.
func TestCalibrateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Calibrate(ctx, Options{Budget: time.Second}); err == nil {
		t.Fatal("cancelled calibration returned a profile")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")
	p := Default()
	p.Calibrated = true
	p.IncrMaxDirtyFrac = 0.125
	p.FittedAt = "2026-08-07T00:00:00Z"
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *p {
		t.Errorf("round trip mismatch:\nsaved  %+v\nloaded %+v", p, back)
	}
	// Atomic rewrite: saving over an existing file replaces it wholesale
	// and leaves no temporary siblings behind.
	p.IncrMaxDirtyFrac = 0.375
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.IncrMaxDirtyFrac != 0.375 {
		t.Errorf("rewrite not visible: %+v", back)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("stray files after atomic rewrites: %v", names)
	}
}

func TestSaveRejectsInvalid(t *testing.T) {
	p := Default()
	p.IncrMaxDirtyFrac = 2
	if err := p.Save(filepath.Join(t.TempDir(), "p.json")); err == nil {
		t.Fatal("invalid profile persisted")
	}
}

// withSuffix writes a valid profile followed by suffix.
func withSuffix(suffix string) func(path string) {
	return func(path string) {
		Default().Save(path)
		f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		f.WriteString(suffix)
		f.Close()
	}
}

// TestLoadLenientFallbacks: every way a profile file can be wrong
// degrades to the default profile with a logged warning — never an
// error the caller could turn into a startup failure.
func TestLoadLenientFallbacks(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		prepare func(path string)
		wantLog string
	}{
		{"missing file", func(string) {}, "not found"},
		{"corrupt JSON", func(path string) {
			os.WriteFile(path, []byte("{nope"), 0o644)
		}, "unusable"},
		{"trailing garbage", withSuffix("{}"), "unusable"},
		{"trailing word", withSuffix(" x"), "unusable"},
		{"trailing brace", withSuffix("}"), "unusable"},
		{"trailing bracket", withSuffix("]"), "unusable"},
		{"trailing braces", withSuffix("}}"), "unusable"},
		{"version skew", func(path string) {
			os.WriteFile(path, []byte(`{"version":99,"incr_max_dirty_frac":0.3,"host":{"gomaxprocs":1,"num_cpu":1,"goos":"linux","goarch":"amd64"},"calibrated":true}`), 0o644)
		}, "unusable"},
		{"version-1 profile", func(path string) {
			os.WriteFile(path, []byte(`{"version":1,"min_parallel_n":32768,"break_even_log_divisor":3,"worker_grain":16384,"max_useful_workers":0,"incr_max_dirty_frac":0.3,"host":{"gomaxprocs":1,"num_cpu":1,"goos":"linux","goarch":"amd64"},"calibrated":true}`), 0o644)
		}, "unusable"},
		{"out-of-range field", func(path string) {
			os.WriteFile(path, []byte(`{"version":2,"incr_max_dirty_frac":1.5,"host":{"gomaxprocs":1,"num_cpu":1,"goos":"linux","goarch":"amd64"},"calibrated":true}`), 0o644)
		}, "unusable"},
		{"unknown field", func(path string) {
			os.WriteFile(path, []byte(`{"version":2,"surprise":true}`), 0o644)
		}, "unusable"},
	}
	for i, tc := range cases {
		path := filepath.Join(dir, tc.name+".json")
		_ = i
		tc.prepare(path)
		var logged strings.Builder
		p := LoadLenient(path, func(format string, args ...any) {
			logged.WriteString(format)
		})
		if p == nil || p.Calibrated {
			t.Errorf("%s: lenient load did not fall back to defaults: %+v", tc.name, p)
		}
		if !strings.Contains(logged.String(), tc.wantLog) {
			t.Errorf("%s: warning %q does not mention %q", tc.name, logged.String(), tc.wantLog)
		}
	}
	// A good file loads without any warning.
	good := filepath.Join(dir, "good.json")
	p := Default()
	p.Calibrated = true
	if err := p.Save(good); err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	loaded := LoadLenient(good, func(format string, args ...any) { logged.WriteString(format) })
	if !loaded.Calibrated || logged.Len() > 0 {
		t.Errorf("clean load: profile %+v, warnings %q", loaded, logged.String())
	}
	// And a nil logf must not panic.
	LoadLenient(filepath.Join(dir, "nowhere.json"), nil)
}
