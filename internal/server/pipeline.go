package server

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"time"

	"sfcp"
	"sfcp/internal/store"
)

// The solve pipeline. Every solve — /solve, each /solve/batch member and
// every async job — runs the same four stages, each written once:
//
//	resolve  sfcp.PlanWith validates the instance and resolves the
//	         algorithm; everything downstream keys on the resolved plan.
//	lookup   instance digest → RAM cache → durable blob tier. A hit is
//	         answered with this request's own plan, never the plan of
//	         the request that populated the entry.
//	execute  a slot of the resolved algorithm's lane (internal/pool),
//	         and the solve on the calling goroutine.
//	fill     solve metrics, cache put, and write-through to the blob
//	         tier at or above SpillN elements.
//
// The cache uses the instance's content address: the root of a SHA-256
// hash tree over the decoded values (sfcp.Instance.Digest), so both
// ingest formats share the keyspace deliberately. The wire format's
// XXH64 trailer guards integrity but is not collision-resistant, so
// cache correctness — where a crafted collision would serve one instance
// another's labels — rests on the cryptographic digest, and a JSON
// upload of an instance hits the entry its binary twin populated. With
// caching disabled and no blob tier no digest is computed at all.

// solveOutcome is what the pipeline reports about one request: the result
// (its Plan always this request's own), whether a cache tier served it,
// and the execute stage's wall time (slot wait included).
type solveOutcome struct {
	res     sfcp.Result
	cached  bool
	elapsed time.Duration
	err     error
}

// solve runs one request through the pipeline. seed overrides the
// server's simulator seed when non-nil; digest is the instance's content
// address when the caller already computed it, "" otherwise.
func (s *Server) solve(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) solveOutcome {
	// Resolve.
	planStart := time.Now()
	plan, err := sfcp.PlanWith(ins, sfcp.Options{Algorithm: algo, Workers: s.cfg.Workers})
	planDur := time.Since(planStart)
	if err != nil {
		// A plan/validation failure is not a solve: nothing resolved and
		// nothing ran, so it counts under the plan-error family keyed by
		// what the request asked for — never under the per-resolved-
		// algorithm solve families (which a request for "auto" would
		// otherwise pollute with a label no solve ever carries).
		s.metrics.planError(algo.String())
		return solveOutcome{err: err}
	}
	resolved := plan.Algorithm
	s.metrics.plan(resolved.String())
	effSeed := s.cfg.Seed
	if seed != nil {
		effSeed = *seed
	}

	// Lookup.
	if digest == "" && (s.cache.enabled() || s.blobs != nil) {
		digest = ins.Digest()
	}
	var key string
	if s.cache.enabled() {
		key = cacheKey(resolved, effSeed, digest)
	}
	if res, ok := s.lookup(key, resolved, effSeed, digest); ok {
		res.Plan = &plan
		return solveOutcome{res: res, cached: true}
	}

	// Execute.
	out := s.execute(ctx, ins, plan, effSeed)

	// Fill.
	if out.err != nil {
		s.metrics.solve(resolved.String(), 0, 0, out.err)
		return out
	}
	out.res.Plan = &plan
	out.res.Timings.Plan = planDur
	s.metrics.solve(resolved.String(), out.res.Timings.Solve, out.res.NumClasses, nil)
	if key != "" {
		s.cache.Put(key, out.res)
	}
	// Results big enough to spill (the job manager's RAM-release
	// threshold) write through to the durable tier, so the next process
	// over this data dir starts warm for exactly the instances that are
	// expensive to recompute. The tier is an accelerator, never a
	// correctness dependency: a failed write is logged and dropped.
	if s.blobs != nil && len(ins.F) >= s.cfg.SpillN {
		rkey := store.ResultKey(resolved.String(), effSeed, digest)
		if err := store.PutLabels(s.blobs, rkey, out.res.Labels); err != nil {
			s.logf("server: persisting result blob %s: %v", rkey, err)
		}
	}
	return out
}

// lookup serves a request from the RAM cache (key "" skips it) or else
// from the durable blob tier, which holds results persisted by async
// jobs, spilled solves and earlier processes over the same data dir. A
// tier hit warms the RAM cache; a corrupt result blob is logged and
// dropped, so the fresh solve re-persists it.
func (s *Server) lookup(key string, algo sfcp.Algorithm, seed uint64, digest string) (sfcp.Result, bool) {
	if key != "" {
		res, ok := s.cache.Get(key)
		s.metrics.cache(ok)
		if ok {
			return res, true
		}
	}
	if s.blobs == nil {
		return sfcp.Result{}, false
	}
	rkey := store.ResultKey(algo.String(), seed, digest)
	labels, err := store.GetLabels(s.blobs, rkey)
	if err != nil {
		if errors.Is(err, store.ErrCorrupt) {
			s.logf("server: %v (dropping it and re-solving)", err)
			_ = s.blobs.Delete(rkey)
		}
		return sfcp.Result{}, false
	}
	res := sfcp.Result{Labels: labels, NumClasses: sfcp.NumClasses(labels)}
	if key != "" {
		s.cache.Put(key, res)
	}
	return res, true
}

// execute runs a resolved request in a slot of its algorithm's lane, on
// the calling goroutine, solving exactly the plan that chose its lane and
// cache key. A linear solve takes its arena from the library's
// process-wide pool, whatever the seed.
func (s *Server) execute(ctx context.Context, ins sfcp.Instance, plan sfcp.Plan, seed uint64) solveOutcome {
	start := time.Now()
	var out solveOutcome
	out.err = s.pool.Run(ctx, plan.Algorithm, func() (err error) {
		out.res, err = sfcp.SolvePlanned(ctx, ins, plan, sfcp.Options{Seed: seed})
		return err
	})
	out.elapsed = time.Since(start)
	return out
}

// cacheKey builds the "resolved/seed/digest" cache key without fmt — this
// runs on every cacheable request, and Sprintf's reflection costs more
// than the rest of the lookup in the tiny-solve regime. One allocation
// (the final string); pinned by TestCacheKeyAllocs.
func cacheKey(algo sfcp.Algorithm, seed uint64, digest string) string {
	name := algo.String()
	var b strings.Builder
	b.Grow(len(name) + len(digest) + 22) // 20 digits of uint64 max + 2 slashes
	b.WriteString(name)
	b.WriteByte('/')
	var num [20]byte
	b.Write(strconv.AppendUint(num[:0], seed, 10))
	b.WriteByte('/')
	b.WriteString(digest)
	return b.String()
}
