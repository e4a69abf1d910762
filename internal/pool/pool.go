// Package pool bounds how many solves run at once. Each concrete
// algorithm has a lane of slots: a solve takes one slot of its resolved
// algorithm, runs on the goroutine that asked for it, and gives the slot
// back when it returns. A burst of slow simulator solves (parallel-pram
// on a huge instance) therefore fills only its own lane and cannot
// starve the cheap sequential ones. Waiting for a slot ends with the
// caller's context or with Close.
//
// Small linear solves go to the batch crew instead: GOMAXPROCS workers
// draining one queue, where each pass takes every request already
// waiting and solves them as one batch, so batches grow exactly while
// every worker is busy and a lone request never waits for company. The
// crew's queue is bounded; when it is full, Batch waits for room until
// its context ends or Close.
//
// sfcpd's server and experiment A5 (internal/bench) run this one
// implementation.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sfcp"
)

// ErrShutdown is returned once the pool is closed. Its text is what
// sfcpd's 503 answers carry.
var ErrShutdown = errors.New("server: pool shut down")

// The batch crew's shape. A linear solve of fewer than BatchMaxN
// elements — the regime where per-request overhead rivals the solve
// itself — belongs on the batch crew. A pass takes at most BatchCap
// requests, and the queue holds two passes' worth, so a full pass never
// blocks the senders of the next one.
const (
	BatchMaxN  = 1 << 15
	BatchCap   = 64
	batchDepth = 2 * BatchCap
)

// Why a batch pass closed: it reached BatchCap (size), or it took every
// request already queued when its worker came free (drain).
const (
	FlushSize  = "size"
	FlushDrain = "drain"
)

// BatchPlan is the plan every batch-crew member resolved to: the crew
// takes linear plans only, and a batch solve reads nothing else.
var BatchPlan = sfcp.Plan{Algorithm: sfcp.AlgorithmLinear, Workers: 1}

// Pool is the lanes plus the batch crew. Create one with New; Close
// releases it.
type Pool struct {
	// lanes holds one counting semaphore per concrete algorithm: a token
	// in the channel is a slot in use.
	lanes map[sfcp.Algorithm]chan struct{}
	batch chan *member
	// solveBatch solves one pass's instances; results are positional.
	solveBatch func(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error)
	// onFlush hears of every pass as it starts: why it closed, how many
	// requests it carried, and their summed queue wait.
	onFlush func(reason string, members int, queueWait time.Duration)
	// ctx is the pool's lifecycle: batch passes run under it, and Close
	// cancels it.
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Outcome is what the batch crew reports about one request: its result
// or error, how many requests shared its pass and why the pass closed,
// and how long the request waited in the queue.
type Outcome struct {
	Res         sfcp.Result
	Err         error
	Coalesced   int
	FlushReason string
	QueueWait   time.Duration
}

// member is one request queued for the batch crew.
type member struct {
	ctx    context.Context
	ins    sfcp.Instance
	queued time.Time
	resC   chan Outcome // buffered: workers never block on delivery
}

// New gives every concrete algorithm a lane of slotsPerAlgo slots and
// starts the batch crew, whose passes run solveBatch and report to
// onFlush. The crew's GOMAXPROCS workers are the only goroutines a pool
// starts.
func New(slotsPerAlgo int, solveBatch func(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error), onFlush func(reason string, members int, queueWait time.Duration)) *Pool {
	//sfcpvet:ignore ctxpath -- the pool's lifecycle root, cancelled in Close; batch passes run under it
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		lanes:      map[sfcp.Algorithm]chan struct{}{},
		batch:      make(chan *member, batchDepth),
		solveBatch: solveBatch,
		onFlush:    onFlush,
		ctx:        ctx,
		cancel:     cancel,
	}
	for _, algo := range sfcp.Algorithms() {
		// Solves arrive planner-resolved, so "auto" never takes a slot.
		if algo != sfcp.AlgorithmAuto {
			p.lanes[algo] = make(chan struct{}, slotsPerAlgo)
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

// Run takes a slot of algo's lane, calls run on the calling goroutine,
// and gives the slot back when run returns. While it waits for a slot it
// fails with ctx's error once ctx ends, and with ErrShutdown once the
// pool is closed; in either case run is never called. run should honour
// the caller's context itself: the slot is held until it returns.
func (p *Pool) Run(ctx context.Context, algo sfcp.Algorithm, run func() error) error {
	lane, ok := p.lanes[algo]
	if !ok {
		return fmt.Errorf("pool: no lane for algorithm %v", algo)
	}
	select {
	case lane <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.ctx.Done():
		return ErrShutdown
	}
	defer func() { <-lane }()
	// The select above is unbiased, so a slot can be won after Close
	// began or after ctx ended. Such a win gives the slot back unused.
	if p.closed() {
		return ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return run()
}

// batchWorker runs batch passes: it pops one request, takes every other
// request already queued up to BatchCap, and solves them together.
func (p *Pool) batchWorker() {
	defer p.wg.Done()
	batch := make([]*member, 0, BatchCap)
	for {
		select {
		case <-p.ctx.Done():
			return
		case t := <-p.batch:
			batch = p.scoop(append(batch, t))
			if len(batch) < BatchCap {
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

// scoop moves requests already queued into batch, up to BatchCap.
func (p *Pool) scoop(batch []*member) []*member {
	for len(batch) < BatchCap {
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
func (p *Pool) runPass(batch []*member) {
	if p.closed() {
		for _, t := range batch {
			t.resC <- Outcome{Err: ErrShutdown}
		}
		return
	}
	reason := FlushDrain
	if len(batch) == BatchCap {
		reason = FlushSize
	}
	start := time.Now()
	var wait time.Duration
	live := batch[:0]
	ins := make([]sfcp.Instance, 0, len(batch))
	for _, t := range batch {
		wait += start.Sub(t.queued)
		if err := t.ctx.Err(); err != nil {
			t.resC <- Outcome{Err: err}
			continue
		}
		live = append(live, t)
		ins = append(ins, t.ins)
	}
	p.onFlush(reason, len(batch), wait)
	results, errs := p.solveBatch(p.ctx, ins)
	for i, t := range live {
		t.resC <- Outcome{
			Res:         results[i],
			Err:         errs[i],
			Coalesced:   len(batch),
			FlushReason: reason,
			QueueWait:   start.Sub(t.queued),
		}
	}
}

// Batch queues ins for the batch crew and waits for its pass. It
// respects ctx both while queued and while waiting: an abandoned waiter
// does not block the worker (the result channel is buffered), and a
// member whose ctx ended before its pass is not solved. The wait has no
// shutdown case, which would make every waiter contend on the one
// lifecycle channel: a request queued before Close began is settled by a
// worker or by Close, and one queued later is failed here.
func (p *Pool) Batch(ctx context.Context, ins sfcp.Instance) Outcome {
	t := &member{ctx: ctx, ins: ins, queued: time.Now(), resC: make(chan Outcome, 1)}
	select {
	case p.batch <- t:
	case <-ctx.Done():
		return Outcome{Err: ctx.Err()}
	case <-p.ctx.Done():
		return Outcome{Err: ErrShutdown}
	}
	if p.closed() {
		return Outcome{Err: ErrShutdown}
	}
	select {
	case out := <-t.resC:
		return out
	case <-ctx.Done():
		return Outcome{Err: ctx.Err()}
	}
}

// closed reports whether Close has begun, without taking a lock.
func (p *Pool) closed() bool {
	select {
	case <-p.ctx.Done():
		return true
	default:
		return false
	}
}

// Close cancels the pool's lifecycle, which fails every slot waiter and
// ends the batch passes, waits for the batch workers to exit and fails
// every request still queued for them: queued requests never run. Then
// it takes every slot of every lane, which waits for the solves holding
// them, and keeps the slots, so a later solve fails at once. Any other
// Close returns once the first has.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.cancel()
		p.wg.Wait()
		for len(p.batch) > 0 {
			(<-p.batch).resC <- Outcome{Err: ErrShutdown}
		}
		for _, lane := range p.lanes {
			for range cap(lane) {
				lane <- struct{}{}
			}
		}
	})
}
