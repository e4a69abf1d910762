package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/calib"
)

// resetProfile restores the built-in default profile after a test that
// installs a fitted one; the active profile is process-wide state.
func resetProfile(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { sfcp.SetCalibrationProfile(nil) })
}

// TestCalibrateEndpoint drives a real (tiny-budget) fit through POST
// /calibrate: the response carries a calibrated profile and the sweep it
// was read off, the profile becomes the active one, it is persisted
// atomically to the configured file, and /metrics flips
// sfcpd_plan_calibrated to 1.
func TestCalibrateEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real calibration fit")
	}
	resetProfile(t)
	path := filepath.Join(t.TempDir(), "profile.json")
	_, ts := newTestServer(t, Config{CalibrationFile: path, CalibrateBudget: 300 * time.Millisecond})

	resp, data := post(t, ts.URL+"/calibrate", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /calibrate = %d, want 200: %s", resp.StatusCode, data)
	}
	var cr CalibrateResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !cr.Profile.Calibrated {
		t.Errorf("response profile not marked calibrated: %+v", cr.Profile)
	}
	if len(cr.Incr) == 0 {
		t.Errorf("response carries no incr_resolve measurements: %s", data)
	}
	if cr.Persisted != path {
		t.Errorf("Persisted = %q, want %q (persist_error=%q)", cr.Persisted, path, cr.PersistError)
	}
	if got := sfcp.ActiveCalibrationProfile().Source(); got != "calibrated" {
		t.Errorf("active profile source = %q after fit, want calibrated", got)
	}
	onDisk, err := calib.Load(path)
	if err != nil {
		t.Fatalf("loading persisted profile: %v", err)
	}
	if onDisk.IncrMaxDirtyFrac != cr.Profile.IncrMaxDirtyFrac {
		t.Errorf("persisted incr_max_dirty_frac = %v, response says %v", onDisk.IncrMaxDirtyFrac, cr.Profile.IncrMaxDirtyFrac)
	}
	if m := fetchMetrics(t, ts); !strings.Contains(m, "sfcpd_plan_calibrated 1") {
		t.Errorf("/metrics after fit missing \"sfcpd_plan_calibrated 1\":\n%s", m)
	}
}

// TestCalibrateBadRequests pins the request-validation surface: GET is
// not routed, malformed and non-positive budgets are 400s, and a fit
// already in flight is refused with 409 rather than queued.
func TestCalibrateBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{CalibrateBudget: 200 * time.Millisecond})

	resp, err := http.Get(ts.URL + "/calibrate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /calibrate = %d, want 405", resp.StatusCode)
	}

	for _, q := range []string{"?budget=nonsense", "?budget=-1s", "?budget=0s"} {
		resp, data := post(t, ts.URL+"/calibrate"+q, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /calibrate%s = %d, want 400: %s", q, resp.StatusCode, data)
		}
	}

	// Simulate an in-flight fit; the handler must refuse, not block.
	s.calibrating.Store(true)
	defer s.calibrating.Store(false)
	resp2, data := post(t, ts.URL+"/calibrate", "")
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("concurrent POST /calibrate = %d, want 409: %s", resp2.StatusCode, data)
	}
}

// TestCalibrationFileBoot covers sfcpd's -calibration-file startup path
// end to end: a valid fitted profile on disk becomes the active profile
// and the /metrics gauge reports calibrated; a corrupt file degrades to
// the defaults without failing construction.
func TestCalibrationFileBoot(t *testing.T) {
	resetProfile(t)
	path := filepath.Join(t.TempDir(), "profile.json")
	prof := calib.Default()
	prof.IncrMaxDirtyFrac = 0.125
	prof.Calibrated = true
	prof.FittedAt = "2026-01-01T00:00:00Z"
	if err := prof.Save(path); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{CalibrationFile: path})
	if got := sfcp.ActiveCalibrationProfile().IncrMaxDirtyFrac; got != 0.125 {
		t.Fatalf("active incr_max_dirty_frac = %v after boot, want 0.125", got)
	}
	m := fetchMetrics(t, ts)
	if !strings.Contains(m, "sfcpd_plan_calibrated 1") {
		t.Errorf("/metrics missing \"sfcpd_plan_calibrated 1\":\n%s", m)
	}
	if !strings.Contains(m, `sfcpd_plan_profile{field="incr_max_dirty_frac"} 0.125`) {
		t.Errorf("/metrics missing the fitted incr_max_dirty_frac threshold:\n%s", m)
	}
}

func TestCalibrationFileBootCorrupt(t *testing.T) {
	resetProfile(t)
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{CalibrationFile: path})
	if got := sfcp.ActiveCalibrationProfile().Source(); got != "default" {
		t.Fatalf("active profile source = %q after corrupt boot file, want default", got)
	}
	if m := fetchMetrics(t, ts); !strings.Contains(m, "sfcpd_plan_calibrated 0") {
		t.Errorf("/metrics missing \"sfcpd_plan_calibrated 0\":\n%s", m)
	}
}
