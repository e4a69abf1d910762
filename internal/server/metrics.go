package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sfcp"
	"sfcp/internal/jobs"
	"sfcp/internal/store"
)

// Metric family names. Every sfcpd_* family the server exposes is named
// exactly once here and referenced by constant everywhere — increment
// sites, Render, tests — so a family cannot drift into two spellings.
// The metricname analyzer (cmd/sfcpvet) enforces this: string-literal
// sfcpd_* names are findings, and each constant must flow through one
// typeHeader call plus at least one sample line.
const (
	metricRequestsTotal      = "sfcpd_requests_total"
	metricErrorsTotal        = "sfcpd_errors_total"
	metricCacheHitsTotal     = "sfcpd_cache_hits_total"
	metricCacheMissesTotal   = "sfcpd_cache_misses_total"
	metricIngestBytesTotal   = "sfcpd_ingest_bytes_total"
	metricPlanAlgorithmTotal = "sfcpd_plan_algorithm_total"
	metricSolvesTotal        = "sfcpd_solves_total"
	metricSolveErrorsTotal   = "sfcpd_solve_errors_total"
	// Solve seconds are the solver's own wall clock (Result.Timings.Solve;
	// for a batch-crew member its size-proportional share of the batch
	// pass), so slot and queue waits are excluded.
	metricSolveSecondsSum    = "sfcpd_solve_seconds_sum"
	metricSolveSecondsMax    = "sfcpd_solve_seconds_max"
	metricSolveClassesSum    = "sfcpd_solve_classes_sum"
	metricJobsSubmittedTotal = "sfcpd_jobs_submitted_total"
	metricJobsFinishedTotal  = "sfcpd_jobs_finished_total"
	metricJobsEvictedTotal   = "sfcpd_jobs_evicted_total"
	metricJobsQueued         = "sfcpd_jobs_queued"
	metricJobsRunning        = "sfcpd_jobs_running"

	// Plan/validation failures, keyed by the algorithm the request asked
	// for (possibly "auto" — nothing was resolved, so nothing ran; these
	// must never inflate the per-resolved-algorithm solve families).
	metricPlanErrorsTotal = "sfcpd_plan_errors_total"

	// Batch-crew families: requests the pool's batch crew served, its
	// passes by the reason they closed, and the summed/counted
	// per-request queue wait (sum/count expose the mean latency a request
	// paid before its pass solved).
	metricBatcherCoalescedTotal    = "sfcpd_batcher_coalesced_total"
	metricBatcherFlushesTotal      = "sfcpd_batcher_flushes_total"
	metricBatcherQueueSecondsSum   = "sfcpd_batcher_queue_seconds_sum"
	metricBatcherQueueSecondsCount = "sfcpd_batcher_queue_seconds_count"

	// Tiered-storage families: blob-tier traffic (reads/writes/deletes
	// and their bytes, from the meter wrapping the configured store),
	// payloads spilled out of RAM, jobs recovered at boot by outcome
	// (requeued to run again vs restored as fetchable terminal state),
	// journal entries recovery had to skip as unreadable, and the RAM
	// result cache's estimated resident bytes. All render as zeros in
	// zero-config (in-memory) mode.
	metricStoreBlobReadsTotal      = "sfcpd_store_blob_reads_total"
	metricStoreBlobWritesTotal     = "sfcpd_store_blob_writes_total"
	metricStoreBlobDeletesTotal    = "sfcpd_store_blob_deletes_total"
	metricStoreBlobReadBytesTotal  = "sfcpd_store_blob_read_bytes_total"
	metricStoreBlobWriteBytesTotal = "sfcpd_store_blob_write_bytes_total"
	metricStoreSpilledTotal        = "sfcpd_store_spilled_total"
	metricStoreRecoveredJobsTotal  = "sfcpd_store_recovered_jobs_total"
	metricStoreJournalCorruptTotal = "sfcpd_store_journal_corrupt_total"
	metricCacheBytes               = "sfcpd_cache_bytes"

	// Incremental re-solve families: deltas applied by mode (the
	// component-scoped incremental path vs the full re-solve the session's
	// valve forced), and a histogram of the dirty fraction each delta
	// invalidated.
	metricResolveTotal     = "sfcpd_resolve_total"
	metricResolveDirtyFrac = "sfcpd_resolve_dirty_frac"
)

// typeHeader renders one family's exposition-format type line.
func typeHeader(name, kind string) string {
	return "# TYPE " + name + " " + kind + "\n"
}

// metrics aggregates the counters exposed at /metrics: per-route request
// and error totals, cache traffic, and per-algorithm solve statistics
// (count, cumulative latency, max latency). Everything is guarded by one
// mutex — the handlers touch it a handful of times per request, far from
// contention territory.
type metrics struct {
	mu        sync.Mutex
	requests  map[string]int64 // by route
	errors    map[string]int64 // by route
	cacheHits int64
	cacheMiss int64
	ingested  map[string]int64       // body bytes by format ("json", "binary")
	solves    map[string]*solveStats // by resolved algorithm name
	plans     map[string]int64       // planner resolutions by resolved algorithm
	planErrs  map[string]int64       // plan/validation failures by requested algorithm

	batcherCoalesced  int64            // requests served by the batch crew
	batcherFlushes    map[string]int64 // passes by reason ("size", "drain")
	batcherQueueWait  time.Duration    // summed per-request queue wait
	batcherQueueCount int64            // requests contributing to that sum

	resolves       map[string]int64                // deltas by resolve mode
	dirtyBuckets   [len(dirtyFracBounds) + 1]int64 // histogram counts, last = +Inf
	dirtyFracSum   float64
	dirtyFracCount int64
}

// dirtyFracBounds are the dirty-fraction histogram's upper bounds. No
// bound marks a decision: a delta re-founds its session when the
// session's valve fires, and the one fraction that always fires it is 1
// (no clean node left).
var dirtyFracBounds = [...]float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1}

type solveStats struct {
	count   int64
	errors  int64
	total   time.Duration
	max     time.Duration
	classes int64 // cumulative, to expose mean classes per solve
}

func newMetrics() *metrics {
	return &metrics{
		requests: map[string]int64{},
		errors:   map[string]int64{},
		ingested: map[string]int64{},
		solves:   map[string]*solveStats{},
		plans:    map[string]int64{},
		planErrs: map[string]int64{},

		batcherFlushes: map[string]int64{},
		resolves:       map[string]int64{},
	}
}

// resolve records one applied delta: the mode the planner resolved
// (incremental or full fallback) and the dirty fraction it measured.
func (m *metrics) resolve(mode string, dirtyFrac float64) {
	m.mu.Lock()
	m.resolves[mode]++
	i := 0
	for i < len(dirtyFracBounds) && dirtyFrac > dirtyFracBounds[i] {
		i++
	}
	m.dirtyBuckets[i]++
	m.dirtyFracSum += dirtyFrac
	m.dirtyFracCount++
	m.mu.Unlock()
}

// plan records one planner resolution: which concrete algorithm a request
// (auto or explicit) mapped to.
func (m *metrics) plan(algo string) {
	m.mu.Lock()
	m.plans[algo]++
	m.mu.Unlock()
}

// planError records a plan or validation failure under the algorithm the
// request asked for — "auto" included, since no resolution happened. The
// solve families stay untouched: a solve that never ran is not a solve.
func (m *metrics) planError(algo string) {
	m.mu.Lock()
	m.planErrs[algo]++
	m.mu.Unlock()
}

// batcherFlush records one batch-crew pass: why it closed, how many
// requests it carried, and their summed queue wait.
func (m *metrics) batcherFlush(reason string, members int, queueWait time.Duration) {
	m.mu.Lock()
	m.batcherCoalesced += int64(members)
	m.batcherFlushes[reason]++
	m.batcherQueueWait += queueWait
	m.batcherQueueCount += int64(members)
	m.mu.Unlock()
}

func (m *metrics) ingest(format string, bytes int64) {
	m.mu.Lock()
	m.ingested[format] += bytes
	m.mu.Unlock()
}

func (m *metrics) request(route string) {
	m.mu.Lock()
	m.requests[route]++
	m.mu.Unlock()
}

func (m *metrics) error(route string) {
	m.mu.Lock()
	m.errors[route]++
	m.mu.Unlock()
}

func (m *metrics) cache(hit bool) {
	m.mu.Lock()
	if hit {
		m.cacheHits++
	} else {
		m.cacheMiss++
	}
	m.mu.Unlock()
}

func (m *metrics) solve(algo string, elapsed time.Duration, classes int, err error) {
	m.mu.Lock()
	s := m.solves[algo]
	if s == nil {
		s = &solveStats{}
		m.solves[algo] = s
	}
	if err != nil {
		s.errors++
	} else {
		s.count++
		s.total += elapsed
		if elapsed > s.max {
			s.max = elapsed
		}
		s.classes += int64(classes)
	}
	m.mu.Unlock()
}

// render writes the counters in Prometheus text exposition format.
func (m *metrics) render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b []byte
	emit := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	emit(typeHeader(metricRequestsTotal, "counter"))
	for _, route := range sortedKeys(m.requests) {
		emit("%s{route=%q} %d\n", metricRequestsTotal, route, m.requests[route])
	}
	emit(typeHeader(metricErrorsTotal, "counter"))
	for _, route := range sortedKeys(m.errors) {
		emit("%s{route=%q} %d\n", metricErrorsTotal, route, m.errors[route])
	}
	emit(typeHeader(metricCacheHitsTotal, "counter"))
	emit("%s %d\n", metricCacheHitsTotal, m.cacheHits)
	emit(typeHeader(metricCacheMissesTotal, "counter"))
	emit("%s %d\n", metricCacheMissesTotal, m.cacheMiss)
	emit(typeHeader(metricIngestBytesTotal, "counter"))
	for _, format := range sortedKeys(m.ingested) {
		emit("%s{format=%q} %d\n", metricIngestBytesTotal, format, m.ingested[format])
	}
	emit(typeHeader(metricPlanAlgorithmTotal, "counter"))
	for _, algo := range sortedKeys(m.plans) {
		emit("%s{algorithm=%q} %d\n", metricPlanAlgorithmTotal, algo, m.plans[algo])
	}
	emit(typeHeader(metricSolvesTotal, "counter"))
	for _, algo := range sortedKeys(m.solves) {
		s := m.solves[algo]
		emit("%s{algorithm=%q} %d\n", metricSolvesTotal, algo, s.count)
	}
	emit(typeHeader(metricSolveErrorsTotal, "counter"))
	for _, algo := range sortedKeys(m.solves) {
		emit("%s{algorithm=%q} %d\n", metricSolveErrorsTotal, algo, m.solves[algo].errors)
	}
	emit(typeHeader(metricSolveSecondsSum, "counter"))
	for _, algo := range sortedKeys(m.solves) {
		emit("%s{algorithm=%q} %g\n", metricSolveSecondsSum, algo, m.solves[algo].total.Seconds())
	}
	emit(typeHeader(metricSolveSecondsMax, "gauge"))
	for _, algo := range sortedKeys(m.solves) {
		emit("%s{algorithm=%q} %g\n", metricSolveSecondsMax, algo, m.solves[algo].max.Seconds())
	}
	emit(typeHeader(metricSolveClassesSum, "counter"))
	for _, algo := range sortedKeys(m.solves) {
		emit("%s{algorithm=%q} %d\n", metricSolveClassesSum, algo, m.solves[algo].classes)
	}
	// Families added after the seed's original sixteen are emitted last,
	// so the long-standing blocks above stay byte-stable for scrapers.
	emit(typeHeader(metricPlanErrorsTotal, "counter"))
	for _, algo := range sortedKeys(m.planErrs) {
		emit("%s{algorithm=%q} %d\n", metricPlanErrorsTotal, algo, m.planErrs[algo])
	}
	emit(typeHeader(metricBatcherCoalescedTotal, "counter"))
	emit("%s %d\n", metricBatcherCoalescedTotal, m.batcherCoalesced)
	emit(typeHeader(metricBatcherFlushesTotal, "counter"))
	for _, reason := range sortedKeys(m.batcherFlushes) {
		emit("%s{reason=%q} %d\n", metricBatcherFlushesTotal, reason, m.batcherFlushes[reason])
	}
	emit(typeHeader(metricBatcherQueueSecondsSum, "counter"))
	emit("%s %g\n", metricBatcherQueueSecondsSum, m.batcherQueueWait.Seconds())
	emit(typeHeader(metricBatcherQueueSecondsCount, "counter"))
	emit("%s %d\n", metricBatcherQueueSecondsCount, m.batcherQueueCount)
	emit(typeHeader(metricResolveTotal, "counter"))
	emit("%s{mode=%q} %d\n", metricResolveTotal, sfcp.ResolveModeIncremental, m.resolves[sfcp.ResolveModeIncremental])
	emit("%s{mode=%q} %d\n", metricResolveTotal, sfcp.ResolveModeFullFallback, m.resolves[sfcp.ResolveModeFullFallback])
	emit(typeHeader(metricResolveDirtyFrac, "histogram"))
	cum := int64(0)
	for i, bound := range dirtyFracBounds {
		cum += m.dirtyBuckets[i]
		emit("%s_bucket{le=\"%g\"} %d\n", metricResolveDirtyFrac, bound, cum)
	}
	emit("%s_bucket{le=\"+Inf\"} %d\n", metricResolveDirtyFrac, m.dirtyFracCount)
	emit("%s_sum %g\n", metricResolveDirtyFrac, m.dirtyFracSum)
	emit("%s_count %d\n", metricResolveDirtyFrac, m.dirtyFracCount)
	return string(b)
}

// renderJobs writes the async job subsystem's counters from a live tally
// of the job store (the store owns its own counts; the metrics mutex has
// nothing to guard here).
func renderJobs(c jobs.Counts) string {
	var b []byte
	emit := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	emit(typeHeader(metricJobsSubmittedTotal, "counter"))
	emit("%s %d\n", metricJobsSubmittedTotal, c.Submitted)
	emit(typeHeader(metricJobsFinishedTotal, "counter"))
	emit("%s{state=%q} %d\n", metricJobsFinishedTotal, jobs.StateDone, c.Done)
	emit("%s{state=%q} %d\n", metricJobsFinishedTotal, jobs.StateFailed, c.Failed)
	emit("%s{state=%q} %d\n", metricJobsFinishedTotal, jobs.StateCancelled, c.Cancelled)
	emit(typeHeader(metricJobsEvictedTotal, "counter"))
	emit("%s %d\n", metricJobsEvictedTotal, c.Evicted)
	emit(typeHeader(metricJobsQueued, "gauge"))
	emit("%s %d\n", metricJobsQueued, c.Queued)
	emit(typeHeader(metricJobsRunning, "gauge"))
	emit("%s %d\n", metricJobsRunning, c.Running)
	return string(b)
}

// renderStore writes the tiered-storage families from live state — the
// blob meter's counters, the job manager's spill/recovery tallies, the
// journal's corrupt-entry count, and the result cache's byte gauge.
// Like renderJobs, every source owns its own synchronization; the
// metrics mutex has nothing to guard. Always rendered (zeros without a
// store) so scrapers see a stable family set in every configuration.
func renderStore(blob store.BlobCounts, jc jobs.Counts, journalCorrupt, cacheBytes int64) string {
	var b []byte
	emit := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	emit(typeHeader(metricStoreBlobReadsTotal, "counter"))
	emit("%s %d\n", metricStoreBlobReadsTotal, blob.Reads)
	emit(typeHeader(metricStoreBlobWritesTotal, "counter"))
	emit("%s %d\n", metricStoreBlobWritesTotal, blob.Writes)
	emit(typeHeader(metricStoreBlobDeletesTotal, "counter"))
	emit("%s %d\n", metricStoreBlobDeletesTotal, blob.Deletes)
	emit(typeHeader(metricStoreBlobReadBytesTotal, "counter"))
	emit("%s %d\n", metricStoreBlobReadBytesTotal, blob.ReadBytes)
	emit(typeHeader(metricStoreBlobWriteBytesTotal, "counter"))
	emit("%s %d\n", metricStoreBlobWriteBytesTotal, blob.WriteBytes)
	emit(typeHeader(metricStoreSpilledTotal, "counter"))
	emit("%s %d\n", metricStoreSpilledTotal, jc.Spilled)
	emit(typeHeader(metricStoreRecoveredJobsTotal, "counter"))
	emit("%s{outcome=%q} %d\n", metricStoreRecoveredJobsTotal, "requeued", jc.Requeued)
	emit("%s{outcome=%q} %d\n", metricStoreRecoveredJobsTotal, "restored", jc.Restored)
	emit(typeHeader(metricStoreJournalCorruptTotal, "counter"))
	emit("%s %d\n", metricStoreJournalCorruptTotal, journalCorrupt)
	emit(typeHeader(metricCacheBytes, "gauge"))
	emit("%s %d\n", metricCacheBytes, cacheBytes)
	return string(b)
}

// blobCounts snapshots the metered blob-tier traffic for /metrics
// (zeros when no tier is configured).
func (s *Server) blobCounts() store.BlobCounts {
	if s.blobs == nil {
		return store.BlobCounts{}
	}
	return s.blobs.Counts()
}

// journalCorrupt reports how many unreadable journal entries recovery
// skipped (zero without a journal, and in the happy path with one).
func (s *Server) journalCorrupt() int64 {
	if s.cfg.JobStore == nil {
		return 0
	}
	return s.cfg.JobStore.CorruptSkipped()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
