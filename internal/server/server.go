// Package server implements sfcpd's HTTP API: a batching
// partition-solving service over the sfcp library. Endpoints:
//
//	POST /solve                     one instance
//	POST /solve/batch               many instances, solved concurrently
//	POST /instances                 register a versioned instance (solve + content address)
//	POST /instances/{digest}/delta  apply edits to a version, solved incrementally
//	GET  /healthz                   liveness
//	GET  /metrics                   Prometheus-style counters
//
// Bodies are JSON by default. The bodies that carry instances and the
// replies that carry labels go through the reflection-free codec of
// jsonwire.go, which holds to encoding/json's wire contract; everything
// else uses encoding/json. POST routes also accept
// Content-Type: application/x-sfcp — the binary wire format of
// internal/codec — with ?algorithm= and ?seed= query parameters. Binary
// uploads are decoded in fixed-size chunks with their XXH64 integrity
// trailers verified as the bytes stream (never a buffered body copy), and
// /solve/batch shards a stream of concatenated instances into batch
// members as they arrive. Cache keys use the SHA-256 content address for
// both formats, so a collision-crafted wire digest cannot poison the
// cache and either format hits entries the other populated.
//
// Every solve — /solve, each /solve/batch member, every async job — runs
// one pipeline of four stages (pipeline.go): resolve (the library's
// planner turns "auto" into the linear solver, and the resolved
// algorithm keys everything downstream), lookup (an LRU keyed by
// resolved algorithm, seed and instance digest, then the durable blob
// tier), execute (on internal/pool: linear plans below 32768 elements
// run on its batch crew, solved in one pass with whatever else is queued
// there; everything else takes a slot of its algorithm's lane and solves
// on the goroutine that asked) and fill (metrics, cache, write-through).
// Hot instances — the "millions of users asking the same question"
// regime — are served without recomputation, and an "auto" request
// shares its entry with the explicit request it resolves to. Every response reports
// its own request's resolved algorithm and the planner's reason, cache
// hits included. The versioned-instance routes run their session builds
// and re-solves in a slot of the linear lane, so they share its
// admission: bounded concurrency, cancellation while waiting, and 503
// once the server is closed.
package server

import (
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
	// once (default 2); further requests wait for a slot. Small linear
	// solves run on the batch crew and do not count against it.
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
	ResolveMS         float64     `json:"resolve_ms,omitempty"`
	Stats             *sfcp.Stats `json:"stats,omitempty"`
	Error             string      `json:"error,omitempty"`

	// Coalescing fields, set when the pool's batch crew served the
	// request: how many requests shared its pass, why the pass closed
	// ("size" or "drain"), and the queue wait — the latency the request
	// spent queued, separable from SolveMS.
	Coalesced   int     `json:"coalesced,omitempty"`
	FlushReason string  `json:"flush_reason,omitempty"`
	QueueMS     float64 `json:"queue_ms,omitempty"`

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
	solver  *sfcp.Solver
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
		solver:  sfcp.NewSolver(sfcp.Options{Seed: cfg.Seed}),
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
	s.pool = pool.New(cfg.WorkersPerAlgorithm, func(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error) {
		return s.solver.SolveBatchPlanned(ctx, ins, pool.BatchPlan)
	}, s.metrics.batcherFlush)
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
	if isBinary(r) {
		s.handleSolveBinary(w, r)
		return
	}
	var req SolveRequest
	if err := decodeRequest(s, w, r, &req); err != nil {
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

// runBatch solves n members concurrently and writes the positional
// BatchResponse; failed members carry Error without failing siblings.
func (s *Server) runBatch(w http.ResponseWriter, n int, solve func(i int) SolveResponse) {
	resp := BatchResponse{Results: make([]SolveResponse, n)}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Results[i] = solve(i)
		}(i)
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

// handleSolveBinary serves POST /solve with a Content-Type:
// application/x-sfcp body holding exactly one wire-format instance.
// Algorithm and seed travel as query parameters.
func (s *Server) handleSolveBinary(w http.ResponseWriter, r *http.Request) {
	algo, seed, err := binaryParams(r)
	if err != nil {
		s.fail(w, "solve", http.StatusBadRequest, err.Error())
		return
	}
	dec, body := s.binaryDecoder(w, r)
	defer func() { s.metrics.ingest("binary", body.n) }()
	ins, err := decodeSingleBinary(dec)
	if err != nil {
		s.fail(w, "solve", decodeStatus(err), err.Error())
		return
	}
	s.writeSolveResult(w, "solve", s.solveInstance(r.Context(), algo, seed, ins))
}

// decodeSingleBinary reads the one instance a single-instance route's body
// must hold, rejecting anything after it — mirroring the JSON path's
// trailing-data rejection. More is a one-byte probe: no second instance
// gets decoded just to be thrown away.
func decodeSingleBinary(dec *codec.Reader) (sfcp.Instance, error) {
	ins, err := decodeBinaryInstance(dec)
	if err != nil {
		return sfcp.Instance{}, err
	}
	switch more, probeErr := dec.More(); {
	case probeErr != nil:
		return sfcp.Instance{}, probeErr
	case more:
		return sfcp.Instance{}, errors.New("invalid binary body: trailing data after instance")
	}
	return ins, nil
}

// handleBatchBinary serves POST /solve/batch with a binary body of
// concatenated wire-format instances: the upload is sharded into members
// as it streams, each with its own trailer digest for cache keying, and
// the members are then solved concurrently like a JSON batch.
//
// A member that fails only its digest check is positionally recoverable
// (every framed byte was consumed, so the stream stays aligned — see
// codec.ErrDigestMismatch): it becomes a per-member error in the response
// instead of a 400 aborting its valid siblings. Errors that lose framing
// (truncation, bad varints, bad magic) still abort the whole upload — the
// remaining byte positions are meaningless.
func (s *Server) handleBatchBinary(w http.ResponseWriter, r *http.Request) {
	algo, seed, err := binaryParams(r)
	if err != nil {
		s.fail(w, "batch", http.StatusBadRequest, err.Error())
		return
	}
	dec, body := s.binaryDecoder(w, r)
	defer func() { s.metrics.ingest("binary", body.n) }()
	type member struct {
		ins    sfcp.Instance
		decErr error
	}
	var members []member
	for {
		if len(members) == s.cfg.MaxBatch {
			// A one-byte probe rejects an over-limit upload before the
			// excess member's arrays get decoded and allocated.
			more, err := dec.More()
			if err != nil {
				s.fail(w, "batch", decodeStatus(err), err.Error())
				return
			}
			if more {
				s.fail(w, "batch", http.StatusBadRequest,
					fmt.Sprintf("batch exceeds limit %d", s.cfg.MaxBatch))
				return
			}
			break
		}
		ins, err := decodeBinaryInstance(dec)
		if err == io.EOF {
			break
		}
		if errors.Is(err, codec.ErrDigestMismatch) {
			members = append(members, member{decErr: err})
			continue
		}
		if err != nil {
			s.fail(w, "batch", decodeStatus(err),
				fmt.Sprintf("instance %d: %s", len(members), err))
			return
		}
		members = append(members, member{ins: ins})
	}
	if len(members) == 0 {
		s.fail(w, "batch", http.StatusBadRequest, "empty batch")
		return
	}
	s.runBatch(w, len(members), func(i int) SolveResponse {
		if err := members[i].decErr; err != nil {
			return SolveResponse{Algorithm: algo.String(), Error: err.Error()}
		}
		return s.solveInstance(r.Context(), algo, seed, members[i].ins)
	})
}

// isBinary reports whether the request carries a wire-format body.
func isBinary(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == sfcp.BinaryMediaType
}

// binaryParams resolves the query-string algorithm and seed of a binary
// upload (the wire format itself carries only the instance).
func binaryParams(r *http.Request) (sfcp.Algorithm, *uint64, error) {
	q := r.URL.Query()
	name := q.Get("algorithm")
	if name == "" {
		name = sfcp.AlgorithmAuto.String()
	}
	algo, err := sfcp.ParseAlgorithm(name)
	if err != nil {
		return 0, nil, err
	}
	var seed *uint64
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("invalid seed %q: %w", raw, err)
		}
		seed = &v
	}
	return algo, seed, nil
}

// binaryDecoder wraps the request body in the byte limit, a byte counter
// for the ingest metric, and a chunked wire-format reader capped at MaxN.
func (s *Server) binaryDecoder(w http.ResponseWriter, r *http.Request) (*codec.Reader, *countingReader) {
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	dec := codec.NewReader(body)
	dec.MaxN = s.cfg.MaxN
	return dec, body
}

// decodeBinaryInstance reads one instance, its XXH64 trailer verified
// chunk by chunk during the streamed decode — so no byte of the body is
// read twice and corruption surfaces here, not as a wrong answer. Cache
// keying happens later on the SHA-256 content address (see solveInstance).
// io.EOF marks a clean end of stream.
func decodeBinaryInstance(dec *codec.Reader) (sfcp.Instance, error) {
	f, b, err := dec.Decode()
	if err != nil {
		return sfcp.Instance{}, err
	}
	return sfcp.Instance{F: f, B: b}, nil
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

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("batch")
	if r.Method != http.MethodPost {
		s.fail(w, "batch", http.StatusMethodNotAllowed, "POST required")
		return
	}
	if isBinary(r) {
		s.handleBatchBinary(w, r)
		return
	}
	var req BatchRequest
	if err := decodeRequest(s, w, r, &req); err != nil {
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
	s.runBatch(w, len(req.Instances), func(i int) SolveResponse {
		return s.solveOne(r.Context(), req.Instances[i], req.Algorithm)
	})
}

// solveOne resolves a JSON request's algorithm and size limit, then hands
// off to solveInstance. It never panics the handler: problems come back
// in SolveResponse.Error.
func (s *Server) solveOne(ctx context.Context, req SolveRequest, defaultAlgo string) SolveResponse {
	name := req.Algorithm
	if name == "" {
		name = defaultAlgo
	}
	if name == "" {
		name = sfcp.AlgorithmAuto.String()
	}
	algo, err := sfcp.ParseAlgorithm(name)
	if err != nil {
		return SolveResponse{Algorithm: name, Error: err.Error()}
	}
	if len(req.F) > s.cfg.MaxN {
		return SolveResponse{
			Algorithm: algo.String(),
			Error:     fmt.Sprintf("instance of %d elements exceeds limit %d", len(req.F), s.cfg.MaxN),
		}
	}
	return s.solveInstance(ctx, algo, req.Seed, sfcp.Instance{F: req.F, B: req.B})
}

// solveInstance runs the pipeline for one request and shapes its outcome
// as the synchronous API's SolveResponse.
func (s *Server) solveInstance(ctx context.Context, algo sfcp.Algorithm, seedOverride *uint64, ins sfcp.Instance) SolveResponse {
	resp := SolveResponse{Algorithm: algo.String()}
	out := s.solve(ctx, algo, seedOverride, ins, "")
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
	resp.Coalesced = out.coalesced
	resp.FlushReason = out.flushReason
	resp.QueueMS = float64(out.queueWait) / float64(time.Millisecond)
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
