package server

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"sfcp"
	"sfcp/internal/jobs"
)

// The async job API. A solve that would hold an HTTP connection for
// minutes travels as a job instead:
//
//	POST   /jobs             submit (JSON body or application/x-sfcp) -> 202 + snapshot
//	GET    /jobs/{id}        status snapshot
//	GET    /jobs/{id}/result labels as JSON, or a binary labels stream
//	                         when the Accept header names application/x-sfcp
//	DELETE /jobs/{id}        cancel (cooperative; idempotent)
//
// Job solves run through the same pipeline — cache, then a slot of
// their lane — as the synchronous endpoints, so a job can be answered
// from cache and a job's result warms the cache for synchronous traffic.

// JobRequest is the JSON body of POST /jobs: a SolveRequest plus a
// scheduling priority (higher runs sooner; default 0). Binary submissions
// carry algorithm, seed and priority as query parameters instead (see
// readBody).
type JobRequest struct {
	Algorithm string  `json:"algorithm,omitempty"`
	F         []int   `json:"f"`
	B         []int   `json:"b"`
	Seed      *uint64 `json:"seed,omitempty"`
	Priority  int     `json:"priority,omitempty"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("jobs")
	var req JobRequest
	if err := readBody(s, w, r, &req); err != nil {
		s.fail(w, "jobs", decodeStatus(err), err.Error())
		return
	}
	algo, err := sfcp.ParseAlgorithm(cmp.Or(req.Algorithm, sfcp.AlgorithmAuto.String()))
	if err != nil {
		s.fail(w, "jobs", http.StatusBadRequest, err.Error())
		return
	}
	if len(req.F) > s.cfg.MaxN {
		s.fail(w, "jobs", http.StatusBadRequest,
			fmt.Sprintf("instance of %d elements exceeds limit %d", len(req.F), s.cfg.MaxN))
		return
	}
	snap, err := s.jobs.Submit(algo, req.Seed, req.Priority, sfcp.Instance{F: req.F, B: req.B})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.fail(w, "jobs", http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, jobs.ErrClosed):
		s.fail(w, "jobs", http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		s.fail(w, "jobs", http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("jobs_status")
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, "jobs_status", http.StatusNotFound, "unknown job (expired or never existed)")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("jobs_result")
	res, snap, err := s.jobs.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.fail(w, "jobs_result", http.StatusNotFound, "unknown job (expired or never existed)")
		return
	case errors.Is(err, jobs.ErrResultUnavailable):
		// The job finished, but its persisted labels cannot be read back
		// (deleted out of band, or corrupt — the codec trailer catches
		// that). The snapshot still stands; the payload is gone.
		s.fail(w, "jobs_result", http.StatusGone, err.Error())
		return
	case err != nil:
		s.fail(w, "jobs_result", http.StatusInternalServerError, err.Error())
		return
	}
	if snap.State != jobs.StateDone {
		// The snapshot rides along so one poll-then-fetch race does not
		// cost the client another round trip to learn why.
		s.metrics.error("jobs_result")
		writeJSON(w, http.StatusConflict, snap)
		return
	}
	if acceptsBinary(r) {
		w.Header().Set("Content-Type", sfcp.BinaryMediaType)
		if err := sfcp.EncodeLabelsBinary(w, res.Labels); err != nil {
			// Headers are gone; all we can do is abort the stream so the
			// client's decoder reports truncation instead of silence.
			return
		}
		return
	}
	resp := SolveResponse{
		Algorithm:         snap.Algorithm,
		ResolvedAlgorithm: snap.ResolvedAlgorithm,
		PlanReason:        snap.PlanReason,
		PlanWorkers:       snap.PlanWorkers,
		Labels:            res.Labels,
		NumClasses:        res.NumClasses,
		Cached:            snap.Cached,
		ElapsedMS:         snap.ElapsedMS,
		Stats:             res.Stats,
	}
	writeReply(w, http.StatusOK, &resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("jobs_cancel")
	snap, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		s.fail(w, "jobs_cancel", http.StatusNotFound, "unknown job (expired or never existed)")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// acceptsBinary reports whether the client asked for the labels wire
// format; JSON stays the default for everything else (including */*).
func acceptsBinary(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mt == sfcp.BinaryMediaType {
			return true
		}
	}
	return false
}
