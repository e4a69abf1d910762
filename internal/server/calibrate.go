package server

import (
	"context"
	"log"
	"net/http"
	"time"

	"sfcp"
	"sfcp/internal/calib"
)

// initCalibration is New's calibration boot step: load the configured
// profile file (leniently — a missing or corrupt file logs a warning and
// the defaults serve), then optionally re-fit on this host before the
// server takes traffic.
func (s *Server) initCalibration() {
	if s.cfg.CalibrationFile != "" {
		sfcp.SetCalibrationProfile(calib.LoadLenient(s.cfg.CalibrationFile, log.Printf))
	}
	if !s.cfg.CalibrateOnStart {
		return
	}
	//sfcpvet:ignore ctxpath -- startup fit before serving: no request context exists yet, and the budget bounds it
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.CalibrateBudget+2*time.Second)
	defer cancel()
	rep, err := calib.Calibrate(ctx, calib.Options{Budget: s.cfg.CalibrateBudget})
	if err != nil {
		log.Printf("calibrate-on-start failed (%v); serving with the previously active profile", err)
		return
	}
	sfcp.SetCalibrationProfile(&rep.Profile)
	if s.cfg.CalibrationFile != "" {
		if err := rep.Profile.Save(s.cfg.CalibrationFile); err != nil {
			log.Printf("persisting calibration profile: %v", err)
		}
	}
}

// CalibrateResponse is the JSON reply of POST /calibrate: the report of
// the fit now steering the delta planner — the fitted profile, the sweep
// it was read off and whether the budget cut it short — and where it was
// persisted.
type CalibrateResponse struct {
	*calib.Report
	// Persisted is the calibration file the profile was atomically
	// written to (empty when the server has none configured).
	Persisted string `json:"persisted,omitempty"`
	// PersistError reports a failed write of an otherwise successful fit:
	// the profile is active in this process but will not survive a
	// restart.
	PersistError string `json:"persist_error,omitempty"`
}

// handleCalibrate re-runs the calibration sweep on this host, installs
// the fitted profile process-wide, and persists it to the configured
// calibration file. The fit is a wall-clock measurement, so concurrent
// fits are refused (409) rather than queued, and the wall clock is
// bounded by the server's budget (lowerable per request with ?budget=).
func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("calibrate")
	if !s.calibrating.CompareAndSwap(false, true) {
		s.fail(w, "calibrate", http.StatusConflict, "calibration already in progress")
		return
	}
	defer s.calibrating.Store(false)

	budget := s.cfg.CalibrateBudget
	if raw := r.URL.Query().Get("budget"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			s.fail(w, "calibrate", http.StatusBadRequest, "invalid budget duration")
			return
		}
		if d < budget {
			budget = d
		}
	}
	// The fit honors the budget internally; the context deadline (with
	// slack for the final measurement to return) backstops it so a wedged
	// solver cannot hold the handler past its promise.
	ctx, cancel := context.WithTimeout(r.Context(), budget+2*time.Second)
	defer cancel()
	rep, err := calib.Calibrate(ctx, calib.Options{Budget: budget})
	if err != nil {
		s.fail(w, "calibrate", http.StatusServiceUnavailable, err.Error())
		return
	}
	sfcp.SetCalibrationProfile(&rep.Profile)

	resp := CalibrateResponse{Report: rep}
	if s.cfg.CalibrationFile != "" {
		if err := rep.Profile.Save(s.cfg.CalibrationFile); err != nil {
			resp.PersistError = err.Error()
		} else {
			resp.Persisted = s.cfg.CalibrationFile
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
