// Package server implements sfcpd's HTTP API: a partition-solving
// service over the sfcp library. Endpoints:
//
//	POST /solve                     one instance
//	POST /solve/batch               many instances, solved concurrently
//	POST /jobs                      one instance, solved asynchronously (jobs.go)
//	POST /instances                 register a versioned instance (solve + content address)
//	POST /instances/{digest}/delta  apply edits to a version, solved incrementally
//	GET  /healthz                   liveness
//	GET  /metrics                   Prometheus-style counters
//
// Bodies are JSON by default. The bodies that carry instances and the
// replies that carry labels go through the reflection-free codec of
// jsonwire.go, which holds to encoding/json's wire contract; everything
// else uses encoding/json. The four routes that carry instances read
// their bodies through one reader, readBody, into one typed request per
// route, whichever the format: it also takes Content-Type:
// application/x-sfcp, the binary wire format of internal/codec, with
// ?algorithm=, ?seed= and (for a job) ?priority= in the query string.
// Binary uploads are decoded in fixed-size chunks with their XXH64
// integrity trailers verified as the bytes stream (never a buffered body
// copy), a header may declare no more elements than half the body's
// Content-Length, and /solve/batch shards a stream of concatenated
// instances into batch members as they arrive. Cache keys use the
// SHA-256 content address for both formats, so a collision-crafted wire
// digest cannot poison the cache and either format hits entries the
// other populated.
//
// Every solve — /solve, each /solve/batch member, every async job — runs
// one pipeline of four stages (pipeline.go): resolve (the library's
// planner turns "auto" into the linear solver, and the resolved
// algorithm keys everything downstream), lookup (an LRU keyed by
// resolved algorithm, seed and instance digest, then the durable blob
// tier), execute (a slot of the resolved algorithm's lane in
// internal/pool, and the solve on the goroutine that asked) and fill
// (metrics, cache, write-through).
// Hot instances — the "millions of users asking the same question"
// regime — are served without recomputation, and an "auto" request
// shares its entry with the explicit request it resolves to. Every response reports
// its own request's resolved algorithm and the planner's reason, cache
// hits included. The versioned-instance routes run their session builds
// and re-solves in a slot of the linear lane, so they share its
// admission: bounded concurrency, cancellation while waiting, and 503
// once the server is closed. That lane bound, -pool-workers slots per
// algorithm, is the server's one limit on concurrent solves.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sfcp"
	"sfcp/internal/codec"
	"sfcp/internal/jobs"
	"sfcp/internal/pool"
	"sfcp/internal/store"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// WorkersPerAlgorithm is how many solves of one algorithm may run at
	// once (default 2); further requests wait for a slot.
	WorkersPerAlgorithm int
	// CacheSize bounds the result LRU in entries (default 1024; negative
	// disables caching).
	CacheSize int
	// MaxN rejects instances larger than this many elements (default 1<<20).
	MaxN int
	// MaxBatch rejects batches with more members than this (default 256).
	MaxBatch int
	// Workers is the host-goroutine budget per solve (0 = NumCPU).
	Workers int
	// Seed is the default simulator seed; requests may override it.
	Seed uint64
	// MaxBodyBytes bounds a request body before JSON decoding (default
	// 64 MiB) — MaxN and MaxBatch only cut in after a body has been
	// decoded, so this is the limit that actually bounds memory.
	MaxBodyBytes int64
	// JobTTL is how long finished async jobs (and their results) are
	// retained for fetching before eviction (default 10 minutes).
	JobTTL time.Duration
	// JobMaxQueued bounds async jobs waiting across all algorithms
	// (default 1024); Submit beyond it returns 429.
	JobMaxQueued int
	// JobStore, when set, journals async job submissions and state
	// transitions so a restart over the same store recovers them:
	// non-terminal jobs re-queue, terminal ones stay fetchable. Both
	// stores are typically opened by sfcpd from -data-dir; nil keeps the
	// in-memory behavior.
	JobStore store.JobStore
	// BlobStore, when set, is the content-addressed durable tier for
	// instance payloads and solved results. The solve path consults it
	// after a RAM-cache miss and persists spilled results into it.
	BlobStore store.BlobStore
	// SpillN is the instance size (elements) at or above which payloads
	// and results are released from RAM once persisted to the blob tier
	// (default 1<<16; only meaningful with BlobStore).
	SpillN int
	// CacheBytes additionally bounds the result LRU by estimated
	// resident bytes (0 = entries-only, the original behavior).
	CacheBytes int64
	// InstanceSessions bounds how many incremental solve sessions (the
	// versioned-instance API's resident decomposition states, each O(n)
	// memory) stay live at once (default 32; negative disables
	// residency — every delta rebuilds from the blob tier).
	InstanceSessions int
	// Logf receives storage and recovery diagnostics (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.WorkersPerAlgorithm <= 0 {
		c.WorkersPerAlgorithm = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.SpillN <= 0 {
		c.SpillN = 1 << 16
	}
	if c.InstanceSessions == 0 {
		c.InstanceSessions = 32
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SolveRequest is the JSON body of POST /solve and a member of a batch.
type SolveRequest struct {
	// Algorithm names the solver (Algorithm.String values); empty means
	// the batch default, or "auto".
	Algorithm string `json:"algorithm,omitempty"`
	// F is the function table: F[x] in [0, n).
	F []int `json:"f"`
	// B is the initial partition label per element.
	B []int `json:"b"`
	// Seed overrides the server's simulator seed when set.
	Seed *uint64 `json:"seed,omitempty"`

	// decodeErr fails a binary batch member that failed only its
	// trailer check, alone; never serialized.
	decodeErr error
}

// SolveResponse is the JSON reply for one instance. Algorithm echoes what
// the request asked for; ResolvedAlgorithm is what the planner actually
// ran (they differ exactly when the request said "auto"), with PlanReason
// explaining the choice.
type SolveResponse struct {
	Algorithm         string      `json:"algorithm"`
	ResolvedAlgorithm string      `json:"resolved_algorithm,omitempty"`
	PlanReason        string      `json:"plan_reason,omitempty"`
	PlanWorkers       int         `json:"plan_workers,omitempty"`
	Labels            []int       `json:"labels,omitempty"`
	NumClasses        int         `json:"num_classes"`
	Cached            bool        `json:"cached"`
	ElapsedMS         float64     `json:"elapsed_ms"`
	PlanMS            float64     `json:"plan_ms,omitempty"`
	SolveMS           float64     `json:"solve_ms,omitempty"`
	Stats             *sfcp.Stats `json:"stats,omitempty"`
	Error             string      `json:"error,omitempty"`

	// Coalesced is never set: sfcpd no longer batches solves. The field
	// stays because the request benchmark (reqbench) reads it.
	Coalesced int `json:"coalesced,omitempty"`

	// transient marks server-side failures (shutdown, cancellation) that
	// deserve a 503 rather than a 400; never serialized.
	transient bool
}

// BatchRequest is the JSON body of POST /solve/batch.
type BatchRequest struct {
	// Algorithm is the default solver for members that leave theirs empty.
	Algorithm string         `json:"algorithm,omitempty"`
	Instances []SolveRequest `json:"instances"`
}

// BatchResponse holds positional results; failed members carry Error and
// do not fail their siblings.
type BatchResponse struct {
	Results []SolveResponse `json:"results"`
	Errors  int             `json:"errors"`
}

// Server is the http.Handler implementing the sfcpd API.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	pool    *pool.Pool
	cache   *resultCache
	metrics *metrics
	jobs    *jobs.Manager
	logf    func(format string, args ...any)

	// sessions holds the versioned-instance API's resident incremental
	// solve states, keyed by the digest of the version each represents.
	sessions *sessionRegistry

	// blobs is the metered durable result tier (nil in zero-config mode);
	// the meter wraps the configured BlobStore so job-manager and
	// solve-path traffic both land in the sfcpd_store_* counters.
	blobs *store.Metered
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newResultCache(cfg.CacheSize, cfg.CacheBytes),
		metrics: newMetrics(),
		logf:    cfg.Logf,

		sessions: newSessionRegistry(cfg.InstanceSessions),
	}
	// The meter wraps the blob tier once so every consumer — the job
	// manager's spill/reload traffic and the solve path's read/write
	// through — shares one set of counters. jobBlobs stays a nil
	// interface (not a typed-nil *Metered) when there is no tier.
	var jobBlobs store.BlobStore
	if cfg.BlobStore != nil {
		s.blobs = store.NewMetered(cfg.BlobStore)
		jobBlobs = s.blobs
	}
	s.pool = pool.New(cfg.WorkersPerAlgorithm)
	// Async jobs run through the same pipeline as synchronous requests,
	// with one dispatcher per lane slot, so jobs alone can fill a lane.
	s.jobs = jobs.New(jobs.Config{
		MaxQueued:               cfg.JobMaxQueued,
		DispatchersPerAlgorithm: cfg.WorkersPerAlgorithm,
		TTL:                     cfg.JobTTL,
		Journal:                 cfg.JobStore,
		Blobs:                   jobBlobs,
		SpillN:                  cfg.SpillN,
		DefaultSeed:             cfg.Seed,
		Logf:                    cfg.Logf,
	}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		out := s.solve(ctx, algo, seed, ins, digest)
		return out.res, out.cached, out.err
	})
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/solve/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /instances", s.handleInstanceCreate)
	s.mux.HandleFunc("POST /instances/{digest}/delta", s.handleInstanceDelta)
	s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the job manager (cancelling running jobs), then the pool,
// waiting for the solves it is running. Waiting requests fail, and later
// solves and instance requests answer 503.
func (s *Server) Close() {
	s.jobs.Close()
	s.pool.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("healthz")
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("metrics")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	jc := s.jobs.Counts()
	fmt.Fprint(w, s.metrics.render())
	fmt.Fprint(w, renderJobs(jc))
	fmt.Fprint(w, renderStore(s.blobCounts(), jc, s.journalCorrupt(), s.cache.Bytes()))
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("solve")
	if r.Method != http.MethodPost {
		s.fail(w, "solve", http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req SolveRequest
	if err := readBody(s, w, r, &req); err != nil {
		s.fail(w, "solve", decodeStatus(err), err.Error())
		return
	}
	s.writeSolveResult(w, "solve", s.solveOne(r.Context(), req, ""))
}

// writeSolveResult maps a single-solve outcome onto HTTP: client mistakes
// become 400, transient server-side failures 503, successes 200.
func (s *Server) writeSolveResult(w http.ResponseWriter, route string, resp SolveResponse) {
	if resp.Error != "" {
		code := http.StatusBadRequest
		if resp.transient {
			code = http.StatusServiceUnavailable
		}
		s.fail(w, route, code, resp.Error)
		return
	}
	writeReply(w, http.StatusOK, &resp)
}

// handleBatch solves the members concurrently and writes the positional
// BatchResponse; failed members carry Error without failing siblings.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("batch")
	if r.Method != http.MethodPost {
		s.fail(w, "batch", http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req BatchRequest
	if err := readBody(s, w, r, &req); err != nil {
		s.fail(w, "batch", decodeStatus(err), err.Error())
		return
	}
	if len(req.Instances) == 0 {
		s.fail(w, "batch", http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Instances) > s.cfg.MaxBatch {
		s.fail(w, "batch", http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Instances), s.cfg.MaxBatch))
		return
	}
	resp := BatchResponse{Results: make([]SolveResponse, len(req.Instances))}
	var wg sync.WaitGroup
	for i := range req.Instances {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp.Results[i] = s.solveOne(r.Context(), req.Instances[i], req.Algorithm)
		}()
	}
	wg.Wait()
	for i := range resp.Results {
		if resp.Results[i].Error != "" {
			resp.Errors++
		}
	}
	if resp.Errors > 0 {
		s.metrics.error("batch")
	}
	writeReply(w, http.StatusOK, &resp)
}

// readBody reads the body of a POST that carries instances into dst,
// which must be zero, so a route reads its typed request and never the
// format. A JSON body decodes as decodeRequest decodes it. A binary body
// (Content-Type: application/x-sfcp) streams through binaryDecoder into
// the same request, and the query string fills the fields a JSON body
// carries beside its instances: ?algorithm= and ?seed= for a solve, a
// batch or a job, ?priority= for a job. A bad query field is refused
// before the body is read.
func readBody[T jsonRequest](s *Server, w http.ResponseWriter, r *http.Request, dst *T) error {
	if !isBinary(r) {
		return decodeRequest(s, w, r, dst)
	}
	q := r.URL.Query()
	algo := q.Get("algorithm")
	var seed *uint64
	var priority int
	if _, ok := any(dst).(*InstanceCreateRequest); !ok {
		if _, err := sfcp.ParseAlgorithm(cmp.Or(algo, sfcp.AlgorithmAuto.String())); err != nil {
			return err
		}
		if raw := q.Get("seed"); raw != "" {
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				return fmt.Errorf("invalid seed %q: %w", raw, err)
			}
			seed = &v
		}
	}
	if raw := q.Get("priority"); raw != "" {
		if _, ok := any(dst).(*JobRequest); ok {
			p, err := strconv.Atoi(raw)
			if err != nil {
				return fmt.Errorf("invalid priority %q: %s", raw, err)
			}
			priority = p
		}
	}
	dec, body := s.binaryDecoder(w, r)
	defer func() { s.metrics.ingest("binary", body.n) }()
	var err error
	switch req := any(dst).(type) {
	case *SolveRequest:
		req.Algorithm, req.Seed = algo, seed
		req.F, req.B, err = decodeSingleBinary(dec)
	case *JobRequest:
		req.Algorithm, req.Seed, req.Priority = algo, seed, priority
		req.F, req.B, err = decodeSingleBinary(dec)
	case *InstanceCreateRequest:
		req.F, req.B, err = decodeSingleBinary(dec)
	case *BatchRequest:
		req.Algorithm = algo
		req.Instances, err = decodeBinaryBatch(dec, s.cfg.MaxBatch, seed)
	}
	return err
}

// decodeSingleBinary reads the one instance a single-instance route's body
// must hold, rejecting anything after it — mirroring the JSON path's
// trailing-data rejection. More is a one-byte probe: no second instance
// gets decoded just to be thrown away. The XXH64 trailer is verified
// chunk by chunk during the streamed decode, so no byte of the body is
// read twice and corruption surfaces here, not as a wrong answer.
func decodeSingleBinary(dec *codec.Reader) (f, b []int, err error) {
	if f, b, err = dec.Decode(); err != nil {
		return nil, nil, err
	}
	switch more, err := dec.More(); {
	case err != nil:
		return nil, nil, err
	case more:
		return nil, nil, errors.New("invalid binary body: trailing data after instance")
	}
	return f, b, nil
}

// decodeBinaryBatch shards a stream of concatenated instances into batch
// members as it arrives, each with seed. A member that fails only its
// trailer check is positionally recoverable (every framed byte was
// consumed, so the stream stays aligned; see codec.ErrDigestMismatch):
// it carries the error and fails alone in the reply. An error that loses
// framing (truncation, a bad varint or magic) fails the whole upload,
// since the remaining byte positions are meaningless.
func decodeBinaryBatch(dec *codec.Reader, maxBatch int, seed *uint64) ([]SolveRequest, error) {
	var members []SolveRequest
	for len(members) < maxBatch {
		f, b, err := dec.Decode()
		switch {
		case err == io.EOF:
			return members, nil
		case err != nil && !errors.Is(err, codec.ErrDigestMismatch):
			return nil, fmt.Errorf("instance %d: %w", len(members), err)
		}
		members = append(members, SolveRequest{F: f, B: b, Seed: seed, decodeErr: err})
	}
	// A one-byte probe rejects an over-limit upload before the excess
	// member's arrays get decoded and allocated.
	switch more, err := dec.More(); {
	case err != nil:
		return nil, err
	case more:
		return nil, fmt.Errorf("batch exceeds limit %d", maxBatch)
	}
	return members, nil
}

// isBinary reports whether the request carries a wire-format body.
func isBinary(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == sfcp.BinaryMediaType
}

// binaryDecoder wraps the request body in the byte limit, a byte counter
// for the ingest metric, and a chunked wire-format reader. The reader's
// element limit is MaxN and, when the request has a Content-Length, half
// of it: an instance's every element takes at least one byte of F and
// one of B, and a delta's every edit a node byte and a flags byte, so no
// honest body is refused and no header makes the decoder allocate more
// than its body can fill.
func (s *Server) binaryDecoder(w http.ResponseWriter, r *http.Request) (*codec.Reader, *countingReader) {
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	dec := codec.NewReader(body)
	dec.MaxN = s.cfg.MaxN
	if r.ContentLength >= 0 {
		dec.MaxN = int(min(int64(dec.MaxN), r.ContentLength/2))
	}
	return dec, body
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// solveOne resolves a request's algorithm and size limit, runs the
// pipeline and shapes its outcome as the synchronous API's SolveResponse.
// It never panics the handler: problems come back in SolveResponse.Error.
func (s *Server) solveOne(ctx context.Context, req SolveRequest, defaultAlgo string) SolveResponse {
	name := cmp.Or(req.Algorithm, defaultAlgo, sfcp.AlgorithmAuto.String())
	algo, err := sfcp.ParseAlgorithm(name)
	if err != nil {
		return SolveResponse{Algorithm: name, Error: err.Error()}
	}
	resp := SolveResponse{Algorithm: algo.String()}
	if req.decodeErr != nil {
		resp.Error = req.decodeErr.Error()
		return resp
	}
	if len(req.F) > s.cfg.MaxN {
		resp.Error = fmt.Sprintf("instance of %d elements exceeds limit %d", len(req.F), s.cfg.MaxN)
		return resp
	}
	out := s.solve(ctx, algo, req.Seed, sfcp.Instance{F: req.F, B: req.B}, "")
	if out.err != nil {
		resp.Error = out.err.Error()
		resp.transient = transient(out.err)
		return resp
	}
	plan := out.res.Plan
	resp.ResolvedAlgorithm, resp.PlanReason, resp.PlanWorkers = plan.Algorithm.String(), plan.Reason, plan.Workers
	resp.Labels, resp.NumClasses, resp.Stats, resp.Cached = out.res.Labels, out.res.NumClasses, out.res.Stats, out.cached
	if !out.cached {
		resp.ElapsedMS = float64(out.elapsed) / float64(time.Millisecond)
		resp.PlanMS = float64(out.res.Timings.Plan) / float64(time.Millisecond)
		resp.SolveMS = float64(out.res.Timings.Solve) / float64(time.Millisecond)
	}
	return resp
}

// transient reports a failure of the server rather than of the request —
// shutdown or cancellation — which deserves a 503 rather than a 400.
func transient(err error) bool {
	return errors.Is(err, pool.ErrShutdown) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *Server) fail(w http.ResponseWriter, route string, code int, msg string) {
	s.metrics.error(route)
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeJSON decodes a JSON body the scanner of jsonwire.go does not
// cover (a delta) with decodeStrict, under the same byte limit.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	return s.readJSON(w, r, func(body []byte) error { return decodeStrict(body, dst) })
}

func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
