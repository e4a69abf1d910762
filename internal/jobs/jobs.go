// Package jobs implements sfcpd's asynchronous job subsystem: a job
// store plus a scheduler that feeds the server's solve pipeline. A
// client submits an instance and gets a job id back immediately; the
// solve runs in the background while the client polls status and
// fetches the result when it is done — so a 10^8-element
// upload no longer ties an HTTP connection to a minutes-long synchronous
// solve, and a client timeout no longer silently wastes the work.
//
// Lifecycle:
//
//	queued ──▶ running ──▶ done | failed | cancelled
//	   └──────────────────────────────────▶ cancelled
//
// Jobs wait in one priority queue per lane (higher Priority first, FIFO
// within a priority). A job's lane is the algorithm it resolves to, the
// same key as the pool's slot lanes, so "auto" and "linear" jobs share a
// queue and one priority orders every job bound for the linear solver,
// while a burst of slow simulator jobs cannot delay cheap sequential
// ones. Each lane has a fixed crew of dispatchers that pop its queue and
// run the solve on their own goroutine through the SolveFunc the server
// wires in (planning, cache, execution and metrics stay in one place).
//
// Cancellation is cooperative: cancelling a queued job removes it from the
// queue; cancelling a running job cancels its context. The PRAM
// simulations poll it every simulated step, so such a job reaches the
// cancelled state within one step; a solve that does not poll it (the
// sequential solvers) runs to its end first, and its result is
// discarded. Deleting a terminal job releases its result payload
// immediately; otherwise terminal jobs (and their results) are evicted
// TTL seconds after finishing by a janitor tick.
//
// # Durability
//
// With Config.Journal set, every state transition is journaled as a
// store.JobRecord, and with Config.Blobs set, instance payloads and
// result labels live in the content-addressed blob tier (codec wire
// bytes, so integrity rides on the digest trailer). Payloads at or above
// Config.SpillN elements are released from RAM once safely in the tier.
// At construction the manager replays the journal: terminal jobs are
// restored (results served from their blobs), queued and running jobs
// are re-queued — a crash or restart loses no accepted work. Close in
// durable mode deliberately leaves non-terminal jobs' records untouched
// so the next boot re-runs them. Without a journal (the zero-config
// default) behavior is exactly the historical in-memory semantics.
package jobs

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"sfcp"
	"sfcp/internal/store"
)

// State is a job's position in the lifecycle.
type State string

// The five job states. Done, Failed and Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never change again
// (until eviction removes it entirely).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SolveFunc executes one job's solve under ctx. The server wires in its
// solve pipeline, so async jobs and synchronous requests share planning,
// memoization, execution and metrics. digest is the instance's content
// address when the manager already computed it (durable mode), "" when
// not, so a payload is hashed once per job. cached reports a memoized
// result (surfaced in the job snapshot).
type SolveFunc func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (res sfcp.Result, cached bool, err error)

// Config sizes the manager. Zero values select the documented defaults.
type Config struct {
	// MaxQueued bounds jobs waiting across all algorithms (default 1024).
	// Submit fails once the bound is hit — the backpressure signal.
	MaxQueued int
	// DispatchersPerAlgorithm is how many jobs of one lane may be in
	// flight at once (default 2, matching the pool's slots per lane).
	DispatchersPerAlgorithm int
	// TTL is how long terminal jobs (and their results) are retained
	// before eviction (default 10 minutes).
	TTL time.Duration
	// Tick is the janitor's eviction interval (default 1 second).
	Tick time.Duration

	// Journal, when non-nil, receives every job state transition and is
	// replayed at construction to recover jobs across restarts. nil (the
	// zero-config default) keeps the historical in-memory semantics.
	Journal store.JobStore
	// Blobs, when non-nil, holds instance payloads and result labels
	// content-addressed by the digests the codec already computes.
	Blobs store.BlobStore
	// SpillN is the element count at or above which payloads are released
	// from RAM once persisted to Blobs (default 65536). Results of done
	// jobs are always persisted when Blobs is set — SpillN only decides
	// whether the RAM copy is dropped too.
	SpillN int
	// DefaultSeed is the seed the solve path applies when a submission
	// carries none. The manager needs it so persisted result keys match
	// the keys the server derives for its cache tiers.
	DefaultSeed uint64
	// Logf receives recovery and persistence diagnostics (default: discard).
	Logf func(format string, args ...any)

	// now is the test hook for eviction clocks (default time.Now).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxQueued <= 0 {
		c.MaxQueued = 1024
	}
	if c.DispatchersPerAlgorithm <= 0 {
		c.DispatchersPerAlgorithm = 2
	}
	if c.TTL <= 0 {
		c.TTL = 10 * time.Minute
	}
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.SpillN <= 0 {
		c.SpillN = 1 << 16
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// ErrQueueFull is returned by Submit when MaxQueued jobs are waiting.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// ErrNotFound is returned by Result for an unknown job id.
var ErrNotFound = errors.New("jobs: unknown job id")

// ErrResultUnavailable is returned by Result for a done job whose label
// payload was released from RAM and cannot be read back from the blob
// tier (deleted out of band, or corrupted — the codec trailer catches
// the latter).
var ErrResultUnavailable = errors.New("jobs: result payload unavailable")

// job is the internal record; all fields are guarded by the manager mutex
// except ins/algo/lane/seed/priority, which are immutable after Submit.
type job struct {
	id       string
	algo     sfcp.Algorithm
	lane     sfcp.Algorithm // the queue it waits in; see laneOf
	seed     *uint64
	priority int
	n        int
	ins      sfcp.Instance // released in finishLocked; n survives for snapshots

	state     State
	seq       uint64 // FIFO tie-break within a priority
	heapIndex int    // position in its queue, -1 when not queued

	submitted time.Time
	started   time.Time
	finished  time.Time

	res    sfcp.Result
	cached bool
	errMsg string

	// insDigest is the instance's content address (set in durable mode);
	// spilled means the payload lives only in the blob tier and must be
	// reloaded before solving. blobRef marks that this job holds a
	// reference in the manager's instance-blob refcount.
	insDigest string
	spilled   bool
	blobRef   bool
	// resultKey is the blob key of the persisted labels; resultSpilled
	// means the RAM copy was released and Result reloads from the tier.
	resultKey     string
	resultSpilled bool

	cancelRequested bool
	cancel          context.CancelFunc // non-nil while running
}

// Snapshot is the externally visible, JSON-serializable view of a job.
// Labels are deliberately absent — status polls stay cheap; results travel
// through Result.
type Snapshot struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Algorithm is what the submission asked for; ResolvedAlgorithm (set
	// once the job is done) is what the planner actually ran, with
	// PlanReason explaining the choice and PlanWorkers the resolved
	// worker count — the same plan fields a synchronous response carries.
	Algorithm         string      `json:"algorithm"`
	ResolvedAlgorithm string      `json:"resolved_algorithm,omitempty"`
	PlanReason        string      `json:"plan_reason,omitempty"`
	PlanWorkers       int         `json:"plan_workers,omitempty"`
	Priority          int         `json:"priority,omitempty"`
	N                 int         `json:"n"`
	SubmittedAt       time.Time   `json:"submitted_at"`
	StartedAt         *time.Time  `json:"started_at,omitempty"`
	FinishedAt        *time.Time  `json:"finished_at,omitempty"`
	ElapsedMS         float64     `json:"elapsed_ms,omitempty"`
	NumClasses        int         `json:"num_classes,omitempty"`
	Cached            bool        `json:"cached,omitempty"`
	Error             string      `json:"error,omitempty"`
	Stats             *sfcp.Stats `json:"stats,omitempty"`
}

// Counts is a point-in-time tally of the store, for metrics export.
type Counts struct {
	Queued, Running                    int
	Submitted, Done, Failed, Cancelled int64
	Evicted                            int64
	// Requeued and Restored tally journal recovery at boot: non-terminal
	// jobs put back on their queues, and terminal jobs whose snapshots
	// (and results, via the blob tier) remain fetchable. Spilled counts
	// payloads released from RAM into the blob tier.
	Requeued, Restored, Spilled int64
}

// Manager owns the job store, the per-lane queues and the dispatcher and
// janitor goroutines. Create one with New; Close releases it.
type Manager struct {
	cfg   Config
	solve SolveFunc

	mu     sync.Mutex
	cond   *sync.Cond // signals dispatchers: queue non-empty or closing
	jobs   map[string]*job
	queues map[sfcp.Algorithm]*jobQueue
	queued int
	seq    uint64
	closed bool
	// insRefs counts live (non-terminal) jobs per instance blob, so a
	// shared payload is deleted from the tier only when its last job
	// finishes — and never during shutdown, when the next boot needs it.
	insRefs map[string]int

	submitted, done, failed, cancelled, evicted int64
	requeued, restored, spilled                 int64
	running                                     int

	// lifecycle is the root context every running job's context derives
	// from; shutdown cancels it, so closing the manager cancels every
	// in-flight solve in one stroke — a daemon shutdown never waits on
	// (or leaks) a minutes-long solve nobody can fetch anymore.
	lifecycle context.Context
	shutdown  context.CancelFunc

	stop chan struct{}
	wg   sync.WaitGroup
}

// New starts a manager with one dispatcher crew per lane plus the
// eviction janitor. solve must be non-nil. With a journal configured,
// recovery runs here — before any dispatcher can race it.
func New(cfg Config, solve SolveFunc) *Manager {
	m := &Manager{
		cfg:     cfg.withDefaults(),
		solve:   solve,
		jobs:    map[string]*job{},
		queues:  map[sfcp.Algorithm]*jobQueue{},
		insRefs: map[string]int{},
		stop:    make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	//sfcpvet:ignore ctxpath -- the scheduler's lifecycle root, cancelled in Close; job contexts derive from it
	m.lifecycle, m.shutdown = context.WithCancel(context.Background())
	// The queues map is complete before any dispatcher starts: dispatchers
	// read it under the mutex, but New writes it outside (nothing else can
	// hold a *Manager yet), so interleaving spawn with population would race.
	for _, algo := range sfcp.Algorithms() {
		m.queues[laneOf(algo)] = &jobQueue{}
	}
	if m.cfg.Journal != nil {
		m.recoverFromJournal()
	}
	for lane := range m.queues {
		for d := 0; d < m.cfg.DispatchersPerAlgorithm; d++ {
			m.wg.Add(1)
			go m.dispatch(lane)
		}
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// laneOf is the lane a job of algo waits in: the algorithm its solve
// resolves to. A plan reads no instance, so an empty one stands in, and
// the lane is known at submission and at recovery alike.
func laneOf(algo sfcp.Algorithm) sfcp.Algorithm {
	if plan, err := sfcp.PlanWith(sfcp.Instance{}, sfcp.Options{Algorithm: algo}); err == nil {
		return plan.Algorithm
	}
	return algo
}

// recoverFromJournal replays the journal into the store: terminal jobs
// come back as fetchable snapshots (labels stay in the blob tier),
// non-terminal jobs go back on their queues with payloads reloaded from
// the tier at dispatch. Runs before the dispatchers exist, so no lock is
// needed. Recovery is lenient all the way down: an unreadable record or
// a missing payload downgrades one job, never the boot. A job naming an
// algorithm this build lacks is dropped for good: its record is deleted,
// and so is its payload once no recovered job needs it.
func (m *Manager) recoverFromJournal() {
	var dropped []string
	err := m.cfg.Journal.Scan(func(rec store.JobRecord) error {
		if rec.ID == "" || rec.Deleted {
			return nil
		}
		if rec.Seq > m.seq {
			m.seq = rec.Seq
		}
		algo, aerr := sfcp.ParseAlgorithm(rec.Algorithm)
		if aerr != nil {
			m.cfg.Logf("jobs: recovery: job %s has unknown algorithm %q; dropping", rec.ID, rec.Algorithm)
			if derr := m.cfg.Journal.Delete(rec.ID); derr != nil {
				m.cfg.Logf("jobs: recovery: deleting journal record %s: %v", rec.ID, derr)
			}
			dropped = append(dropped, rec.InstanceDigest)
			return nil
		}
		j := &job{
			id:        rec.ID,
			algo:      algo,
			lane:      laneOf(algo),
			seed:      rec.Seed,
			priority:  rec.Priority,
			n:         rec.N,
			seq:       rec.Seq,
			heapIndex: -1,
			submitted: rec.SubmittedAt,
			insDigest: rec.InstanceDigest,
		}
		if st := State(rec.State); st.Terminal() {
			j.state = st
			j.errMsg = rec.Error
			j.started = rec.StartedAt
			j.finished = rec.FinishedAt
			if st == StateDone {
				j.cached = rec.Cached
				j.res.NumClasses = rec.NumClasses
				if rec.ResolvedAlgorithm != "" {
					if ra, perr := sfcp.ParseAlgorithm(rec.ResolvedAlgorithm); perr == nil {
						j.res.Plan = &sfcp.Plan{Algorithm: ra, Workers: rec.PlanWorkers, Reason: rec.PlanReason}
					}
				}
				j.resultKey = rec.ResultKey
				j.resultSpilled = true // labels live in the blob tier, not RAM
			}
			m.jobs[rec.ID] = j
			m.restored++
			return nil
		}
		// Queued or running at shutdown: run it (again). The payload must
		// come from the blob tier — RAM did not survive.
		j.state = StateQueued
		j.spilled = true
		has := false
		if m.cfg.Blobs != nil && rec.InstanceDigest != "" {
			ok, herr := m.cfg.Blobs.Has(rec.InstanceDigest)
			has = herr == nil && ok
		}
		m.jobs[rec.ID] = j
		if !has {
			m.cfg.Logf("jobs: recovery: job %s instance payload %s missing; failing it", rec.ID, rec.InstanceDigest)
			m.finishLocked(j, StateFailed, "instance payload missing after restart", m.cfg.now())
			if perr := m.cfg.Journal.Put(m.recordLocked(j)); perr != nil {
				m.cfg.Logf("jobs: recovery: journaling failed job %s: %v", rec.ID, perr)
			}
			return nil
		}
		j.blobRef = true
		m.insRefs[rec.InstanceDigest]++
		heap.Push(m.queues[j.lane], j)
		m.queued++
		m.requeued++
		return nil
	})
	if err != nil {
		m.cfg.Logf("jobs: recovery: journal scan: %v", err)
	}
	for _, digest := range dropped {
		if m.insRefs[digest] == 0 {
			m.deleteInstanceBlob(digest)
		}
	}
	if n := m.cfg.Journal.CorruptSkipped(); n > 0 {
		m.cfg.Logf("jobs: recovery: journal had %d unreadable entries (skipped)", n)
	}
	if m.requeued > 0 || m.restored > 0 {
		m.cfg.Logf("jobs: recovery: re-queued %d jobs, restored %d terminal snapshots", m.requeued, m.restored)
	}
}

// Close cancels running jobs, stops the dispatchers and janitor, and waits
// for them. Submit fails afterwards. In zero-config mode queued jobs
// transition to cancelled; in durable mode their journal records stay
// non-terminal on purpose, so the next boot re-queues and completes them.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	durable := m.cfg.Journal != nil
	now := m.cfg.now()
	for _, j := range m.jobs {
		switch j.state {
		case StateQueued:
			if durable {
				continue // the journal record outlives the process
			}
			m.queues[j.lane].remove(j)
			m.queued--
			m.finishLocked(j, StateCancelled, "server shutting down", now)
		case StateRunning:
			// Zero-config: marked here so the dispatcher records the job as
			// cancelled. Durable mode skips the mark — if the solve outruns
			// the lifecycle shutdown below it is recorded as done (work not
			// wasted), and if interrupted the dispatcher leaves the journal
			// record non-terminal so the next boot re-runs it.
			if !durable {
				j.cancelRequested = true
			}
		}
	}
	m.shutdown()
	close(m.stop)
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// Submit enqueues one job and returns its snapshot (the id is fresh and
// unguessable). It fails fast with ErrQueueFull or ErrClosed; instance
// validity is the solver's concern and surfaces as a failed job. In
// durable mode the payload is content-addressed and persisted before the
// job becomes visible, and the submission is journaled.
func (m *Manager) Submit(algo sfcp.Algorithm, seed *uint64, priority int, ins sfcp.Instance) (Snapshot, error) {
	id, err := newID()
	if err != nil {
		return Snapshot{}, err
	}
	lane := laneOf(algo)
	var digest string
	blobbed := false
	if m.cfg.Journal != nil {
		// Fail fast before hashing a payload we would then throw away.
		m.mu.Lock()
		err := m.admitLocked(lane)
		m.mu.Unlock()
		if err != nil {
			return Snapshot{}, err
		}
		// Hashing and blob I/O scale with n — strictly outside the mutex.
		digest = ins.Digest()
		if m.cfg.Blobs != nil {
			if err := store.PutInstance(m.cfg.Blobs, digest, ins); err != nil {
				m.cfg.Logf("jobs: persisting instance %s for job %s: %v (payload stays RAM-resident)", digest, id, err)
			} else {
				blobbed = true
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.admitLocked(lane); err != nil {
		return Snapshot{}, err
	}
	m.seq++
	j := &job{
		id:        id,
		algo:      algo,
		lane:      lane,
		seed:      seed,
		priority:  priority,
		n:         len(ins.F),
		ins:       ins,
		state:     StateQueued,
		seq:       m.seq,
		submitted: m.cfg.now(),
		insDigest: digest,
	}
	if blobbed {
		j.blobRef = true
		m.insRefs[digest]++
		if j.n >= m.cfg.SpillN {
			j.ins = sfcp.Instance{}
			j.spilled = true
			m.spilled++
		}
	}
	m.jobs[id] = j
	heap.Push(m.queues[lane], j)
	m.queued++
	m.submitted++
	m.journalLocked(j)
	m.cond.Broadcast()
	return m.snapshotLocked(j), nil
}

// admitLocked is the Submit admission check: open, under the queue
// bound, and a known lane.
func (m *Manager) admitLocked(lane sfcp.Algorithm) error {
	if m.closed {
		return ErrClosed
	}
	if m.queued >= m.cfg.MaxQueued {
		return fmt.Errorf("%w: %d jobs waiting", ErrQueueFull, m.queued)
	}
	if _, ok := m.queues[lane]; !ok {
		return fmt.Errorf("jobs: no queue for algorithm %v", lane)
	}
	return nil
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return m.snapshotLocked(j), true
}

// Result returns a done job's result alongside its snapshot. Unknown ids
// return ErrNotFound; a known job that is not done returns a zero Result
// and a nil error — callers branch on Snapshot.State. A done job whose
// labels were spilled is reloaded from the blob tier (outside the
// manager mutex); a payload that cannot be read back surfaces as
// ErrResultUnavailable with the snapshot still valid.
func (m *Manager) Result(id string) (sfcp.Result, Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return sfcp.Result{}, Snapshot{}, ErrNotFound
	}
	snap := m.snapshotLocked(j)
	res := j.res
	spilled, key := j.resultSpilled, j.resultKey
	m.mu.Unlock()
	if snap.State != StateDone {
		return sfcp.Result{}, snap, nil
	}
	if !spilled {
		return res, snap, nil
	}
	if m.cfg.Blobs == nil || key == "" {
		return sfcp.Result{}, snap, fmt.Errorf("%w: job %s has no persisted labels", ErrResultUnavailable, id)
	}
	labels, err := store.GetLabels(m.cfg.Blobs, key)
	if err != nil {
		return sfcp.Result{}, snap, fmt.Errorf("%w: job %s: %v", ErrResultUnavailable, id, err)
	}
	res.Labels = labels
	return res, snap, nil
}

// Cancel requests cancellation — and, on a terminal job, deletion.
// Queued jobs are removed and become cancelled immediately; running jobs
// have their context cancelled and reach the cancelled state when the
// solver's next cooperative check fires, or when a solve that makes none
// ends. A terminal job is evicted on the spot: its result payload is
// released immediately rather than waiting for the TTL janitor, and the
// returned snapshot is its final pre-deletion state.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	var releaseBlob, dropID string
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Snapshot{}, false
	}
	var snap Snapshot
	switch j.state {
	case StateQueued:
		m.queues[j.lane].remove(j)
		m.queued--
		releaseBlob = m.finishLocked(j, StateCancelled, "cancelled before start", m.cfg.now())
		m.journalLocked(j)
		snap = m.snapshotLocked(j)
	case StateRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			if j.cancel != nil {
				j.cancel()
			}
		}
		snap = m.snapshotLocked(j)
	default:
		// Terminal: delete now. The labels (RAM and, for the snapshot, the
		// reference) go immediately; the result blob stays — it is the
		// durable tier, addressed by content, not by job.
		snap = m.snapshotLocked(j)
		j.res = sfcp.Result{}
		delete(m.jobs, id)
		m.evicted++
		dropID = id
	}
	m.mu.Unlock()
	m.deleteInstanceBlob(releaseBlob)
	if dropID != "" && m.cfg.Journal != nil {
		if err := m.cfg.Journal.Delete(dropID); err != nil {
			m.cfg.Logf("jobs: deleting journal record %s: %v", dropID, err)
		}
	}
	return snap, true
}

// Counts tallies the store for metrics export.
func (m *Manager) Counts() Counts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Counts{
		Queued:    m.queued,
		Running:   m.running,
		Submitted: m.submitted,
		Done:      m.done,
		Failed:    m.failed,
		Cancelled: m.cancelled,
		Evicted:   m.evicted,
		Requeued:  m.requeued,
		Restored:  m.restored,
		Spilled:   m.spilled,
	}
}

// dispatch is one dispatcher goroutine: pop the lane's queue, reload a
// spilled payload, run the solve under the job's cancellable context,
// persist the result, finalize.
func (m *Manager) dispatch(lane sfcp.Algorithm) {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		q := m.queues[lane]
		for q.Len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(q).(*job)
		m.queued--
		j.state = StateRunning
		j.started = m.cfg.now()
		m.running++
		ctx, cancel := context.WithCancel(m.lifecycle)
		j.cancel = cancel
		m.journalLocked(j)
		ins, spilled, digest := j.ins, j.spilled, j.insDigest
		m.mu.Unlock()

		var res sfcp.Result
		var cached bool
		var err error
		if spilled {
			// The codec's digest trailer makes a corrupted payload a
			// precise job failure here instead of a solve of garbage.
			ins, err = store.GetInstance(m.cfg.Blobs, digest)
			if err != nil {
				err = fmt.Errorf("jobs: reloading instance %s: %w", digest, err)
			}
		}
		if err == nil {
			res, cached, err = m.solve(ctx, j.algo, j.seed, ins, digest)
		}
		cancel()

		// Persist the labels before finalizing, so a journaled done record
		// never points at a result key that is not yet on disk.
		var resultKey string
		if err == nil && m.cfg.Journal != nil && m.cfg.Blobs != nil && digest != "" {
			var perr error
			resultKey, perr = m.persistResult(j, res)
			if perr != nil {
				m.cfg.Logf("jobs: persisting result for job %s: %v (labels stay RAM-resident)", j.id, perr)
			}
		}

		m.mu.Lock()
		m.running--
		j.cancel = nil
		now := m.cfg.now()
		var releaseBlob string
		switch {
		case j.cancelRequested:
			// The client's DELETE wins even over a solve that slipped past
			// the last cooperative check: the result is discarded.
			releaseBlob = m.finishLocked(j, StateCancelled, context.Canceled.Error(), now)
			m.journalLocked(j)
		case err != nil:
			state := StateFailed
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				state = StateCancelled
			}
			releaseBlob = m.finishLocked(j, state, err.Error(), now)
			if state == StateCancelled && m.closed {
				// Shutdown interrupted the solve. Leaving the journal record
				// non-terminal is deliberate: the next boot re-queues the job
				// instead of reporting a cancellation nobody asked for.
			} else {
				m.journalLocked(j)
			}
		default:
			j.res = res
			j.cached = cached
			j.resultKey = resultKey
			if resultKey != "" && j.n >= m.cfg.SpillN {
				j.res.Labels = nil
				j.resultSpilled = true
				m.spilled++
			}
			releaseBlob = m.finishLocked(j, StateDone, "", now)
			m.journalLocked(j)
		}
		m.mu.Unlock()
		m.deleteInstanceBlob(releaseBlob)
	}
}

// persistResult writes the labels under the result key derived from the
// resolved plan — the durable twin of the server's cache key, so the
// server's blob read-through finds job results and vice versa. Already
// present (the server's write-through got there first) is success.
func (m *Manager) persistResult(j *job, res sfcp.Result) (string, error) {
	resolved := j.algo
	if res.Plan != nil {
		resolved = res.Plan.Algorithm
	}
	seed := m.cfg.DefaultSeed
	if j.seed != nil {
		seed = *j.seed
	}
	key := store.ResultKey(resolved.String(), seed, j.insDigest)
	if err := store.PutLabels(m.cfg.Blobs, key, res.Labels); err != nil {
		return "", err
	}
	return key, nil
}

// deleteInstanceBlob removes a released instance payload from the tier
// (no-op for an empty key). Called outside the manager mutex.
func (m *Manager) deleteInstanceBlob(key string) {
	if key == "" || m.cfg.Blobs == nil {
		return
	}
	if err := m.cfg.Blobs.Delete(key); err != nil {
		m.cfg.Logf("jobs: deleting instance blob %s: %v", key, err)
	}
}

// journalLocked appends j's current state to the journal. Callers hold
// m.mu — the append is a single buffered line, taken under the lock so
// one job's transitions can never reach the journal out of order.
func (m *Manager) journalLocked(j *job) {
	if m.cfg.Journal == nil {
		return
	}
	if err := m.cfg.Journal.Put(m.recordLocked(j)); err != nil {
		m.cfg.Logf("jobs: journaling job %s (%s): %v", j.id, j.state, err)
	}
}

// recordLocked builds the persisted view of j.
func (m *Manager) recordLocked(j *job) store.JobRecord {
	rec := store.JobRecord{
		ID:             j.id,
		Seq:            j.seq,
		Algorithm:      j.algo.String(),
		Seed:           j.seed,
		Priority:       j.priority,
		N:              j.n,
		State:          string(j.state),
		SubmittedAt:    j.submitted,
		StartedAt:      j.started,
		FinishedAt:     j.finished,
		Error:          j.errMsg,
		InstanceDigest: j.insDigest,
	}
	if j.state == StateDone {
		rec.NumClasses = j.res.NumClasses
		rec.Cached = j.cached
		rec.ResultKey = j.resultKey
		if j.res.Plan != nil {
			rec.ResolvedAlgorithm = j.res.Plan.Algorithm.String()
			rec.PlanReason = j.res.Plan.Reason
			rec.PlanWorkers = j.res.Plan.Workers
		}
	}
	return rec
}

// finishLocked moves a job to a terminal state and bumps the tallies. The
// input arrays are released here rather than at eviction: a finished
// 10^8-element job would otherwise pin gigabytes of dead F+B for the whole
// TTL window (only n is needed for later snapshots). If this was the last
// live job referencing its instance blob, the blob key is returned for
// deletion outside the lock — except during shutdown, when the next boot
// still needs it.
func (m *Manager) finishLocked(j *job, state State, errMsg string, now time.Time) (releaseBlob string) {
	j.state = state
	j.errMsg = errMsg
	j.finished = now
	j.ins = sfcp.Instance{}
	switch state {
	case StateDone:
		m.done++
	case StateFailed:
		m.failed++
	case StateCancelled:
		m.cancelled++
	}
	if j.blobRef {
		j.blobRef = false
		if m.insRefs[j.insDigest]--; m.insRefs[j.insDigest] <= 0 {
			delete(m.insRefs, j.insDigest)
			if !m.closed {
				releaseBlob = j.insDigest
			}
		}
	}
	return releaseBlob
}

// janitor evicts terminal jobs TTL after they finished, every Tick.
func (m *Manager) janitor() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.evictExpired()
		}
	}
}

// evictExpired drops expired terminal jobs and their journal records.
// Result blobs are deliberately retained: they are the durable result
// tier, keyed by content, and the server's read-through serves them long
// after the job that computed them is gone.
func (m *Manager) evictExpired() {
	cutoff := m.cfg.now().Add(-m.cfg.TTL)
	var dropped []string
	m.mu.Lock()
	for id, j := range m.jobs {
		if j.state.Terminal() && j.finished.Before(cutoff) {
			delete(m.jobs, id)
			m.evicted++
			dropped = append(dropped, id)
		}
	}
	m.mu.Unlock()
	if m.cfg.Journal == nil {
		return
	}
	for _, id := range dropped {
		if err := m.cfg.Journal.Delete(id); err != nil {
			m.cfg.Logf("jobs: evicting journal record %s: %v", id, err)
		}
	}
}

func (m *Manager) snapshotLocked(j *job) Snapshot {
	s := Snapshot{
		ID:          j.id,
		State:       j.state,
		Algorithm:   j.algo.String(),
		Priority:    j.priority,
		N:           j.n,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
		end := j.finished
		if end.IsZero() {
			end = m.cfg.now()
		}
		s.ElapsedMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	if j.state == StateDone {
		s.NumClasses = j.res.NumClasses
		s.Cached = j.cached
		s.Stats = j.res.Stats
		if j.res.Plan != nil {
			s.ResolvedAlgorithm = j.res.Plan.Algorithm.String()
			s.PlanReason = j.res.Plan.Reason
			s.PlanWorkers = j.res.Plan.Workers
		}
	}
	return s
}

// newID returns a fresh 128-bit hex job id.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: id generation: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// jobQueue is a max-heap by (priority, then submission order). It
// implements heap.Interface; the manager mutex guards every access.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }

func (q jobQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}

func (q jobQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].heapIndex = i
	q[j].heapIndex = j
}

func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.heapIndex = len(*q)
	*q = append(*q, j)
}

func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIndex = -1
	*q = old[:n-1]
	return j
}

// remove deletes a specific job from the queue (for cancellation).
func (q *jobQueue) remove(j *job) {
	if j.heapIndex >= 0 && j.heapIndex < q.Len() && (*q)[j.heapIndex] == j {
		heap.Remove(q, j.heapIndex)
	}
}
