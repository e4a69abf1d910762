package server

import (
	"container/list"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sync"
	"time"

	"sfcp"
	"sfcp/internal/codec"
	"sfcp/internal/store"
)

// The versioned-instance API. An instance registered here is addressed by
// its content digest (sfcp.Instance.Digest), and a delta POSTed against
// that digest produces a child version — solved incrementally from the
// parent's resident decomposition state — cached under the child's own
// digest, which the session keeps current (sfcp.Incremental.Digest) at
// the cost of the leaves the delta touched, not of a copy and a hash of
// the whole instance:
//
//	POST /instances                 register + solve (JSON or application/x-sfcp)
//	POST /instances/{digest}/delta  apply edits (JSON or application/x-sfcp-delta)
//
// Sessions live in a bounded LRU; a delta consumes the parent's session
// (the state advances in place to the child version) and re-registers it
// under the child digest. A digest whose session is not resident —
// evicted, consumed by a concurrent delta, or from before a restart — is
// reloaded from the blob tier and rebuilt with a full solve, so with a
// durable store the whole version tree survives process restarts. The
// instance payload of every version is persisted when the version is
// made, under store.VersionKey(digest), to make that reload possible;
// the job manager's payloads use the plain digest and are deleted when
// their last job finishes.
//
// Session builds, rebuilds and re-solves are O(n) solver work, so each
// request runs in a slot of the linear lane: it shares the lane's bounded
// concurrency with the linear solves, stops waiting when its client goes
// away, and fails with 503 once the server is closed. A request's task
// either ran to the end or never started. The version's payload is
// written to the blob tier after the slot is given back, so no solve
// waits on the disk.

// sessionRegistry is a bounded LRU of resident incremental sessions keyed
// by the digest of the version they currently represent. take removes the
// entry it returns — a session is owned by exactly one delta at a time,
// and re-registered under the child digest when the delta completes.
type sessionRegistry struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *sessionEntry
	entries map[string]*list.Element
}

type sessionEntry struct {
	digest string
	inc    *sfcp.Incremental
}

func newSessionRegistry(capacity int) *sessionRegistry {
	return &sessionRegistry{
		cap:     capacity,
		order:   list.New(),
		entries: map[string]*list.Element{},
	}
}

// take removes and returns the session for digest. Concurrent deltas
// against one parent serialize here: the loser sees a miss and rebuilds
// from the blob tier.
func (g *sessionRegistry) take(digest string) (*sfcp.Incremental, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	el, ok := g.entries[digest]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*sessionEntry)
	g.order.Remove(el)
	delete(g.entries, digest)
	return ent.inc, true
}

// put registers a session under digest, evicting least-recently-used
// sessions beyond the cap (their versions stay reachable through the blob
// tier's rebuild path).
func (g *sessionRegistry) put(digest string, inc *sfcp.Incremental) {
	if g.cap <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if el, ok := g.entries[digest]; ok {
		el.Value.(*sessionEntry).inc = inc
		g.order.MoveToFront(el)
		return
	}
	g.entries[digest] = g.order.PushFront(&sessionEntry{digest: digest, inc: inc})
	for g.order.Len() > g.cap {
		oldest := g.order.Back()
		ent := oldest.Value.(*sessionEntry)
		g.order.Remove(oldest)
		delete(g.entries, ent.digest)
	}
}

func (g *sessionRegistry) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.order.Len()
}

// InstanceCreateRequest is the JSON body of POST /instances.
type InstanceCreateRequest struct {
	F []int `json:"f"`
	B []int `json:"b"`
}

// InstanceResponse is the JSON reply of POST /instances: the version's
// content digest (the address deltas are POSTed against) plus the solve.
type InstanceResponse struct {
	Digest     string `json:"digest"`
	N          int    `json:"n"`
	NumClasses int    `json:"num_classes"`
	Labels     []int  `json:"labels,omitempty"`
	// Reused marks a registration that found the session already
	// resident — nothing was solved.
	Reused  bool    `json:"reused,omitempty"`
	SolveMS float64 `json:"solve_ms,omitempty"`
}

// DeltaResponse is the JSON reply of POST /instances/{digest}/delta: the
// child version's digest and labels, and how the delta was resolved.
type DeltaResponse struct {
	ParentDigest string `json:"parent_digest"`
	Digest       string `json:"digest"`
	N            int    `json:"n"`
	NumClasses   int    `json:"num_classes"`
	Labels       []int  `json:"labels,omitempty"`
	// Resolve is the planner's decision trace: incremental vs full
	// fallback, with the dirty-set sizes that drove the choice.
	Resolve *sfcp.ResolveInfo `json:"resolve,omitempty"`
	// SessionRebuilt marks a parent that was not resident: its instance
	// was reloaded from the blob tier and fully re-solved before the
	// delta applied.
	SessionRebuilt bool    `json:"session_rebuilt,omitempty"`
	ResolveMS      float64 `json:"resolve_ms"`
}

func (s *Server) handleInstanceCreate(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("instances")
	var ins sfcp.Instance
	if isBinary(r) {
		dec, body := s.binaryDecoder(w, r)
		defer func() { s.metrics.ingest("binary", body.n) }()
		var err error
		ins, err = decodeSingleBinary(dec)
		if err != nil {
			s.fail(w, "instances", decodeStatus(err), err.Error())
			return
		}
	} else {
		var req InstanceCreateRequest
		if err := decodeRequest(s, w, r, &req); err != nil {
			s.fail(w, "instances", decodeStatus(err), err.Error())
			return
		}
		ins = sfcp.Instance{F: req.F, B: req.B}
	}
	if len(ins.F) > s.cfg.MaxN {
		s.fail(w, "instances", http.StatusBadRequest,
			fmt.Sprintf("instance of %d elements exceeds limit %d", len(ins.F), s.cfg.MaxN))
		return
	}
	digest := ins.Digest()
	resp := InstanceResponse{Digest: digest, N: len(ins.F)}
	withLabels := !omitLabels(r)
	err := s.pool.Run(r.Context(), sfcp.AlgorithmLinear, func() error {
		// A resident session makes registration idempotent: the labels
		// come from the session rather than a re-solve, and take/put
		// keeps the read atomic per session.
		inc, ok := s.sessions.take(digest)
		resp.Reused = ok
		if !ok {
			start := time.Now()
			var err error
			if inc, err = sfcp.NewIncremental(ins); err != nil {
				return err
			}
			resp.SolveMS = float64(time.Since(start)) / float64(time.Millisecond)
		}
		if withLabels {
			resp.Labels = inc.Labels()
		}
		resp.NumClasses = inc.NumClasses()
		s.sessions.put(digest, inc)
		return nil
	})
	if err != nil {
		code := http.StatusBadRequest
		if transient(err) {
			code = http.StatusServiceUnavailable
		}
		s.fail(w, "instances", code, err.Error())
		return
	}
	if !resp.Reused {
		s.instancePut(digest, ins)
	}
	writeReply(w, http.StatusOK, &resp)
}

func (s *Server) handleInstanceDelta(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("instances_delta")
	parent := r.PathValue("digest")
	if !store.ValidKey(parent) {
		s.fail(w, "instances_delta", http.StatusBadRequest,
			fmt.Sprintf("invalid instance digest %q", parent))
		return
	}
	delta, err := s.decodeDelta(w, r)
	if err != nil {
		s.fail(w, "instances_delta", decodeStatus(err), err.Error())
		return
	}
	if len(delta.Edits) == 0 {
		s.fail(w, "instances_delta", http.StatusBadRequest, "empty delta")
		return
	}
	var resp DeltaResponse
	var child sfcp.Instance // the version's payload for the blob tier
	withLabels := !omitLabels(r)
	// A failure of the task itself (not of its admission) is a server
	// error unless the task marks it as the request's fault.
	code := http.StatusInternalServerError
	err = s.pool.Run(r.Context(), sfcp.AlgorithmLinear, func() error {
		inc, rebuilt, err := s.instanceSession(parent)
		if err != nil {
			return err
		}
		info, err := inc.Apply(delta)
		if err != nil {
			// Edit validation precedes mutation, so the session still
			// represents the parent version; re-register it there.
			s.sessions.put(parent, inc)
			code = http.StatusBadRequest
			return err
		}
		// The reply and the blob tier's payload are read before the put:
		// after it a concurrent delta may advance the session past this
		// version. Only a reply that asks for labels renumbers them.
		resp = DeltaResponse{
			ParentDigest:   parent,
			Digest:         inc.Digest(),
			N:              inc.N(),
			NumClasses:     inc.NumClasses(),
			Resolve:        info,
			SessionRebuilt: rebuilt,
			ResolveMS:      float64(info.Duration) / float64(time.Millisecond),
		}
		if withLabels {
			resp.Labels = inc.Labels()
		}
		if s.blobs != nil {
			child = inc.Instance()
		}
		s.sessions.put(resp.Digest, inc)
		s.metrics.resolve(info.Mode, info.DirtyFrac)
		return nil
	})
	switch {
	case err == nil:
	case transient(err):
		s.fail(w, "instances_delta", http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, store.ErrNotFound):
		s.fail(w, "instances_delta", http.StatusNotFound,
			fmt.Sprintf("unknown instance digest %s (not resident, not in the blob tier)", parent))
		return
	default:
		s.fail(w, "instances_delta", code, err.Error())
		return
	}
	s.instancePut(resp.Digest, child)
	writeReply(w, http.StatusOK, &resp)
}

// omitLabels reports whether the request asked to leave the label array
// out of the response (?labels=false) — a delta against a
// million-element version should not have to ship the full labels just
// to learn the child digest.
func omitLabels(r *http.Request) bool {
	switch r.URL.Query().Get("labels") {
	case "false", "0":
		return true
	}
	return false
}

// decodeDelta parses a delta body in either wire format: JSON
// (sfcp.Delta) by default, the binary edit-list frame under
// Content-Type: application/x-sfcp-delta.
func (s *Server) decodeDelta(w http.ResponseWriter, r *http.Request) (sfcp.Delta, error) {
	mt, _, mtErr := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mtErr == nil && mt == sfcp.DeltaBinaryMediaType {
		dec, body := s.binaryDecoder(w, r)
		defer func() { s.metrics.ingest("binary", body.n) }()
		wireEdits, err := dec.DecodeDelta()
		if err != nil {
			return sfcp.Delta{}, err
		}
		switch more, probeErr := dec.More(); {
		case probeErr != nil:
			return sfcp.Delta{}, probeErr
		case more:
			return sfcp.Delta{}, errors.New("invalid binary body: trailing data after delta")
		}
		delta := sfcp.Delta{Edits: make([]sfcp.Edit, len(wireEdits))}
		for i, de := range wireEdits {
			delta.Edits[i] = publicEdit(de)
		}
		return delta, nil
	}
	var delta sfcp.Delta
	if err := s.decodeJSON(w, r, &delta); err != nil {
		return sfcp.Delta{}, err
	}
	return delta, nil
}

// publicEdit converts one wire edit to the library's pointer-style form.
func publicEdit(de codec.DeltaEdit) sfcp.Edit {
	e := sfcp.Edit{Node: de.Node}
	if de.SetF {
		f := de.F
		e.F = &f
	}
	if de.SetB {
		b := de.B
		e.B = &b
	}
	return e
}

// instanceSession acquires the session for digest: resident (taken from
// the registry) or rebuilt from the blob tier's persisted instance
// payload with a full solve. A digest in neither place is
// store.ErrNotFound, and so is a corrupt payload, which is dropped so a
// re-registration re-persists clean bytes.
func (s *Server) instanceSession(digest string) (inc *sfcp.Incremental, rebuilt bool, err error) {
	if inc, ok := s.sessions.take(digest); ok {
		return inc, false, nil
	}
	if s.blobs == nil {
		return nil, false, fmt.Errorf("%w: %s (no blob tier configured)", store.ErrNotFound, digest)
	}
	key := store.VersionKey(digest)
	ins, err := store.GetInstance(s.blobs, key)
	if errors.Is(err, store.ErrCorrupt) {
		s.logf("server: %v (dropping it)", err)
		_ = s.blobs.Delete(key)
		return nil, false, fmt.Errorf("%w: %s (payload unreadable)", store.ErrNotFound, digest)
	}
	if err != nil {
		return nil, false, err
	}
	inc, err = sfcp.NewIncremental(ins)
	if err != nil {
		return nil, false, fmt.Errorf("rebuilding session for %s: %w", digest, err)
	}
	return inc, true, nil
}

// instancePut persists one version's instance payload into the blob tier
// under store.VersionKey(digest) — the bytes a restart (or an evicted
// session) rebuilds from. Like the result write-through, failures are
// logged and swallowed: persistence accelerates and survives, it never
// gates.
func (s *Server) instancePut(digest string, ins sfcp.Instance) {
	if s.blobs == nil {
		return
	}
	if err := store.PutInstance(s.blobs, store.VersionKey(digest), ins); err != nil {
		s.logf("server: persisting instance blob %s: %v", digest, err)
	}
}
