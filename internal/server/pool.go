package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sfcp"
)

// errShutdown is returned by submit once the pool is closed.
var errShutdown = errors.New("server: pool shut down")

// The batch crew's shape. A linear solve of fewer than batchMaxN
// elements — the regime where per-request queue and dispatch overhead
// rivals the solve itself — goes to the batch crew. A pass takes at most
// batchCap requests, and the queue holds two passes' worth, so a full
// pass never blocks the senders of the next one.
const (
	batchMaxN  = 1 << 15
	batchCap   = 64
	batchDepth = 2 * batchCap
)

// Why a batch pass closed: it reached batchCap (size), or it took every
// request already queued when its worker came free (drain).
const (
	flushSize  = "size"
	flushDrain = "drain"
)

// pool schedules solves onto bounded crews of worker goroutines. Each
// concrete algorithm gets its own queue and its own fixed crew, so a
// burst of slow simulator jobs (parallel-pram on a huge instance) cannot
// starve the cheap sequential queues. Small linear solves go to the batch
// crew instead: GOMAXPROCS workers draining one queue, where each pass
// takes every request already waiting and solves them as one batch, so
// batches grow exactly while every worker is busy and a lone request
// never waits for company. Queues are bounded; when one is full, a submit
// blocks — callers pass a request context to bound the wait.
type pool struct {
	queues map[sfcp.Algorithm]chan *poolTask
	batch  chan *poolTask
	// solveBatch solves one pass's instances; results are positional.
	solveBatch func(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error)
	metrics    *metrics
	// ctx is the pool's lifecycle: batch passes run under it, and close
	// cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// poolTask is one queued request: run for an algorithm crew, ins for the
// batch crew.
type poolTask struct {
	ctx    context.Context
	run    func(ctx context.Context) (sfcp.Result, error)
	ins    sfcp.Instance
	queued time.Time
	resC   chan solveOutcome // buffered: workers never block on delivery
}

// newPool starts workersPerAlgo workers for every algorithm, each crew
// draining a queue of depth queueDepth, and the batch crew, whose passes
// run solveBatch and report to m.
func newPool(workersPerAlgo, queueDepth int, solveBatch func(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error), m *metrics) *pool {
	//sfcpvet:ignore ctxpath -- the pool's lifecycle root, cancelled in close; batch passes run under it
	ctx, cancel := context.WithCancel(context.Background())
	p := &pool{
		queues:     map[sfcp.Algorithm]chan *poolTask{},
		batch:      make(chan *poolTask, batchDepth),
		solveBatch: solveBatch,
		metrics:    m,
		ctx:        ctx,
		cancel:     cancel,
	}
	for _, algo := range sfcp.Algorithms() {
		// Submissions arrive planner-resolved, so "auto" can never be
		// queued — building it a crew would just park idle goroutines.
		if algo == sfcp.AlgorithmAuto {
			continue
		}
		q := make(chan *poolTask, queueDepth)
		p.queues[algo] = q
		for w := 0; w < workersPerAlgo; w++ {
			p.wg.Add(1)
			go p.worker(q)
		}
	}
	// One batch worker per P: a pass is a sequential solve, so more
	// workers than Ps would only split batches without adding throughput.
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		p.wg.Add(1)
		go p.batchWorker()
	}
	return p
}

func (p *pool) worker(q chan *poolTask) {
	defer p.wg.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case t := <-q:
			// Re-check shutdown with priority: the select above is
			// unbiased, so a closing pool could keep randomly draining and
			// *executing* queued tasks — work close documents as dropped.
			if p.closed() {
				t.resC <- solveOutcome{err: errShutdown}
				continue
			}
			// Don't burn a worker on a task whose submitter already gave
			// up while it sat in the queue (client timeout + retry storms
			// would otherwise pay for every abandoned predecessor).
			if err := t.ctx.Err(); err != nil {
				t.resC <- solveOutcome{err: err}
				continue
			}
			// The submitter's context rides into the solve so an abandoned
			// or cancelled request stops burning the worker at the solver's
			// next cooperative check, not minutes later.
			res, err := t.run(t.ctx)
			t.resC <- solveOutcome{res: res, err: err}
		}
	}
}

// batchWorker runs batch passes: it pops one request, takes every other
// request already queued up to batchCap, and solves them together.
func (p *pool) batchWorker() {
	defer p.wg.Done()
	batch := make([]*poolTask, 0, batchCap)
	for {
		select {
		case <-p.ctx.Done():
			return
		case t := <-p.batch:
			batch = p.scoop(append(batch, t))
			if len(batch) < batchCap {
				// The rest of a concurrent burst may be runnable but not
				// yet queued — the first send wakes a worker ahead of its
				// peers, acutely so on a single-P runtime. Yield once so
				// they reach their sends, then scoop again.
				runtime.Gosched()
				batch = p.scoop(batch)
			}
			p.runPass(batch)
			clear(batch)
			batch = batch[:0]
		}
	}
}

// scoop moves requests already queued into batch, up to batchCap.
func (p *pool) scoop(batch []*poolTask) []*poolTask {
	for len(batch) < batchCap {
		select {
		case t := <-p.batch:
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// runPass solves one batch and settles every member. A pass never starts
// once the pool is closing (the worker's select may pick a queued request
// over shutdown), and a member whose submitter already gave up gets its
// own context's error instead of being solved for an absent client.
func (p *pool) runPass(batch []*poolTask) {
	if p.closed() {
		for _, t := range batch {
			t.resC <- solveOutcome{err: errShutdown}
		}
		return
	}
	reason := flushDrain
	if len(batch) == batchCap {
		reason = flushSize
	}
	start := time.Now()
	var wait time.Duration
	live := batch[:0]
	ins := make([]sfcp.Instance, 0, len(batch))
	for _, t := range batch {
		wait += start.Sub(t.queued)
		if err := t.ctx.Err(); err != nil {
			t.resC <- solveOutcome{err: err}
			continue
		}
		live = append(live, t)
		ins = append(ins, t.ins)
	}
	p.metrics.batcherFlush(reason, len(batch), wait)
	results, errs := p.solveBatch(p.ctx, ins)
	for i, t := range live {
		t.resC <- solveOutcome{
			res:         results[i],
			err:         errs[i],
			coalesced:   len(batch),
			flushReason: reason,
			queueWait:   start.Sub(t.queued),
		}
	}
}

// submit runs run on the algorithm's crew and waits for its outcome.
func (p *pool) submit(ctx context.Context, algo sfcp.Algorithm, run func(ctx context.Context) (sfcp.Result, error)) solveOutcome {
	q, ok := p.queues[algo]
	if !ok {
		return solveOutcome{err: fmt.Errorf("server: no queue for algorithm %v", algo)}
	}
	return p.await(ctx, q, &poolTask{ctx: ctx, run: run})
}

// submitBatch queues ins for the batch crew and waits for its pass.
func (p *pool) submitBatch(ctx context.Context, ins sfcp.Instance) solveOutcome {
	return p.await(ctx, p.batch, &poolTask{ctx: ctx, ins: ins, queued: time.Now()})
}

// await enqueues t on q and waits for its outcome. It respects ctx both
// while queued and while waiting: an abandoned waiter does not block the
// worker (the result channel is buffered), and the worker hands ctx to
// run for cooperative mid-solve cancellation. The wait has no shutdown
// case, which would make every waiter contend on the one lifecycle
// channel: a task queued before close began is settled by a worker or by
// close, and one queued later is failed here.
func (p *pool) await(ctx context.Context, q chan<- *poolTask, t *poolTask) solveOutcome {
	t.resC = make(chan solveOutcome, 1)
	select {
	case q <- t:
	case <-ctx.Done():
		return solveOutcome{err: ctx.Err()}
	case <-p.ctx.Done():
		return solveOutcome{err: errShutdown}
	}
	if p.closed() {
		return solveOutcome{err: errShutdown}
	}
	select {
	case out := <-t.resC:
		return out
	case <-ctx.Done():
		return solveOutcome{err: ctx.Err()}
	}
}

// closed reports whether close has begun, without taking a lock.
func (p *pool) closed() bool {
	select {
	case <-p.ctx.Done():
		return true
	default:
		return false
	}
}

// close cancels the pool's lifecycle and waits for the workers to exit,
// then fails every request still queued with errShutdown: queued
// requests never run.
func (p *pool) close() {
	p.cancel()
	p.wg.Wait()
	for _, q := range p.queues {
		failQueued(q)
	}
	failQueued(p.batch)
}

// failQueued settles every task left in q with errShutdown.
func failQueued(q chan *poolTask) {
	for {
		select {
		case t := <-q:
			t.resC <- solveOutcome{err: errShutdown}
		default:
			return
		}
	}
}
