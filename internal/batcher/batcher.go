// Package batcher coalesces concurrent small solve requests into
// micro-batches: requests accumulate in a single collector goroutine and
// flush as one batch when the batch reaches a size cap, when a max-wait
// deadline expires, or — the adaptive group-commit path — as soon as the
// intake is idle while a flush slot is free, so batches grow exactly when
// flush capacity is the bottleneck and a lone request never stalls for
// company that is not coming. The caller's Run callback executes the
// whole batch (one plan, one scratch arena) and each submitter gets back
// its own member result plus the batch metadata — how many requests it
// shared a flush with, why the flush fired, and per-request
// queued/flushed/responded timestamps so queue wait and solve time stay
// separable.
//
// The package is deliberately lock-free in the sync.Mutex sense: all
// coordination is channels, so no lock is ever held across a solver
// call, and the collector's lifecycle context derives from the context
// the owner passes to New (both properties are enforced by sfcpvet's
// lockhold and ctxpath analyzers, which scope this package).
package batcher

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfcp"
)

// ErrShutdown is reported by Submit when the batcher is closed (or its
// lifecycle context cancelled) before the request's batch completed.
var ErrShutdown = errors.New("batcher: shut down")

// Flush reasons, reported in Outcome.FlushReason and to Observe.
const (
	// FlushSize: the batch hit Config.MaxSize.
	FlushSize = "size"
	// FlushDeadline: Config.MaxWait expired since the batch's first member.
	FlushDeadline = "deadline"
	// FlushDrain: the intake went idle while a flush slot was free, so
	// waiting longer could only add latency, not coalescing.
	FlushDrain = "drain"
)

// Member is one coalesced request as the Run callback sees it. Ctx is the
// submitter's request context — Run implementations should skip members
// whose context is already dead rather than solving for an absent client.
// Key is an opaque caller tag (e.g. a result-cache key) carried through
// untouched.
type Member struct {
	Ctx context.Context
	Ins sfcp.Instance
	Key string
}

// MemberResult is one member's result from the Run callback, positional
// with the members slice.
type MemberResult struct {
	Res sfcp.Result
	Err error
}

// RunFunc executes one flushed batch: fill out[i] (zeroed on entry,
// positional with members) for every member — an untouched position is
// delivered as a successful zero Result. ctx is the batcher's lifecycle
// context (cancelled on Close). Both slices are owned by the batcher and
// recycled across flushes, so they must not be retained past the call
// (the Results placed in out are delivered by value and may be). It runs
// on a flush goroutine, never under any lock.
type RunFunc func(ctx context.Context, members []Member, out []MemberResult)

// Outcome is what one submitter gets back: its member result plus the
// batch-level metadata and the request's queue timestamps.
type Outcome struct {
	Res sfcp.Result
	Err error
	// Coalesced is the number of requests that shared this flush.
	Coalesced int
	// FlushReason is FlushSize, FlushDeadline or FlushDrain.
	FlushReason string
	// Queued, Flushed, Responded are the request's lifecycle timestamps:
	// submission, batch flush, and result delivery.
	Queued, Flushed, Responded time.Time
}

// QueueWait is the time the request spent coalescing before its batch
// flushed — the latency cost of batching, separable from solve time.
func (o Outcome) QueueWait() time.Duration { return o.Flushed.Sub(o.Queued) }

// Config configures a Batcher.
type Config struct {
	// MaxWait bounds how long the first request of a batch waits before
	// the batch flushes regardless of size (default 1ms).
	MaxWait time.Duration
	// MaxSize flushes the batch as soon as it has this many members
	// (default 64).
	MaxSize int
	// Concurrency bounds how many flushed batches execute at once while
	// the collector accumulates the next one (default GOMAXPROCS — the
	// parallelism actually available, so a free slot means spare solving
	// capacity and the drain path can fire).
	Concurrency int
	// Run executes a flushed batch. Required.
	Run RunFunc
	// Observe, if set, is called once per flush with the reason, the
	// member count and the summed per-member queue wait — the hook the
	// server uses to feed the sfcpd_batcher_* metric families.
	Observe func(reason string, members int, queueWait time.Duration)
}

func (c Config) withDefaults() Config {
	if c.MaxWait <= 0 {
		c.MaxWait = time.Millisecond
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	return c
}

// item is one queued request: the member, the outcome slot the flush
// goroutine fills, and a zero-byte done signal (buffered, so flush
// goroutines never block on a departed submitter; the outcome travels in
// the item rather than through the channel to skip a struct copy).
type item struct {
	member Member
	queued time.Time
	out    Outcome
	done   chan struct{}
}

// itemPool recycles items (and their delivery channels) across Submit
// calls. An item is returned to the pool only after its submitter
// received the done signal: each item gets exactly one send, so a
// completed receive proves no other goroutine still touches it. Submits
// abandoned mid-flight (context cancelled, shutdown) leave their item to
// the GC.
var itemPool = sync.Pool{New: func() any {
	return &item{done: make(chan struct{}, 1)}
}}

// closingBit marks the sender gate shut; the bits below it count senders
// currently inside the enqueue window (between the gate check and their
// send completing).
const closingBit = 1 << 62

// flushBuf carries one flush's scratch slices — the members view handed
// to Run and the out slice Run fills — recycled across flushes so the
// steady state allocates nothing per batch.
type flushBuf struct {
	members []Member
	out     []MemberResult
}

// Batcher coalesces Submit calls into micro-batches. All coordination is
// channel-based; a single collector goroutine owns the accumulating
// batch, and flushes execute on bounded worker goroutines.
type Batcher struct {
	cfg    Config
	in     chan *item
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	freed  chan struct{} // a flush slot was released; re-check the batch
	wg     sync.WaitGroup
	// senders gates the enqueue window so shutdown can quiesce it: once
	// the collector sets closingBit, new submits fail fast, and when the
	// count drains to zero every item that will ever be enqueued is on
	// the intake — which is what lets Submit wait on a bare done receive
	// (no lifecycle case): delivery is guaranteed, not raced.
	senders atomic.Int64
	bufs    sync.Pool // *flushBuf
	batches sync.Pool // *[]*item, accumulating-batch backing arrays
}

// New starts a Batcher whose lifetime is bounded by lifecycle: cancelling
// it (or calling Close) fails queued and future submits with ErrShutdown.
func New(lifecycle context.Context, cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(lifecycle)
	b := &Batcher{
		cfg: cfg,
		// Buffered intake: a submitter under the cap enqueues and moves
		// straight to waiting on its outcome — one park per request, not
		// two. The buffer outsizes MaxSize so a full batch never blocks
		// its senders.
		in:     make(chan *item, 2*cfg.MaxSize),
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, cfg.Concurrency),
		freed:  make(chan struct{}, 1),
	}
	b.wg.Add(1)
	go b.collect()
	return b
}

// Submit queues one request for coalescing and blocks until its batch
// completes, ctx is done, or the batcher shuts down. On success the
// returned error equals Outcome.Err (the member's own solve error —
// other members of the same batch fail independently).
func (b *Batcher) Submit(ctx context.Context, ins sfcp.Instance, key string) (Outcome, error) {
	// Enter the enqueue window; once shutdown closes the gate nothing new
	// reaches the intake, so the collector's final drain is really final.
	if b.senders.Add(1)&closingBit != 0 {
		b.senders.Add(-1)
		return Outcome{}, ErrShutdown
	}
	it := itemPool.Get().(*item)
	it.member = Member{Ctx: ctx, Ins: ins, Key: key}
	it.queued = time.Now()
	// Fast path: the intake buffer usually has room, and a nonblocking
	// send skips the full select machinery.
	select {
	case b.in <- it:
	default:
		select {
		case b.in <- it:
		case <-ctx.Done():
			b.senders.Add(-1)
			itemPool.Put(it)
			return Outcome{}, ctx.Err()
		case <-b.ctx.Done():
			b.senders.Add(-1)
			itemPool.Put(it)
			return Outcome{}, ErrShutdown
		}
	}
	b.senders.Add(-1)
	// Every enqueued item is settled — by its flush, or by the shutdown
	// drain (see collect) — so the wait needs no lifecycle case: a bare
	// receive when the caller's ctx cannot fire, a two-way select when it
	// can. Shutdown arrives through the item itself as ErrShutdown.
	if ctx.Done() == nil {
		<-it.done
		return it.deliver()
	}
	select {
	case <-it.done:
		return it.deliver()
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// deliver reads the settled outcome and recycles the item (safe exactly
// because each item gets one done signal, and this receive consumed it).
func (it *item) deliver() (Outcome, error) {
	out := it.out
	it.member = Member{}
	it.out = Outcome{}
	itemPool.Put(it)
	return out, out.Err
}

// Close stops the batcher: queued requests fail with ErrShutdown,
// in-flight flushes are cancelled through the lifecycle context, and
// Close returns once the collector and all flush goroutines exit.
func (b *Batcher) Close() {
	b.cancel()
	b.wg.Wait()
}

// collect is the single accumulator goroutine: it owns the pending batch
// and the deadline timer, and hands full or expired batches to flush
// goroutines so the next batch accumulates while the previous one solves.
func (b *Batcher) collect() {
	defer b.wg.Done()
	var batch []*item
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		select {
		case it := <-b.in:
			if len(batch) == 0 {
				timer.Reset(b.cfg.MaxWait)
				if batch == nil {
					// Reuse a flushed batch's backing array (execute returns
					// them to the pool) instead of growing a fresh one.
					if p, _ := b.batches.Get().(*[]*item); p != nil {
						batch = *p
					} else {
						batch = make([]*item, 0, b.cfg.MaxSize)
					}
				}
			}
			batch = append(batch, it)
			batch = b.scoop(batch)
			if len(batch) < b.cfg.MaxSize {
				// The rest of a concurrent burst may be runnable but not
				// yet at the intake — the first send wakes the collector
				// ahead of its peers, acutely so on a single-P runtime.
				// Yield once so they reach their sends, then scoop again
				// before judging the intake idle.
				runtime.Gosched()
				batch = b.scoop(batch)
			}
			if len(batch) >= b.cfg.MaxSize {
				timer.Stop()
				b.dispatch(batch, FlushSize)
				batch = nil
				continue
			}
			// Group commit: the intake is idle, so if a flush slot is
			// free, holding the batch buys no extra coalescing — only
			// latency. Batches therefore grow exactly while every slot is
			// busy (or arrivals outpace the scoop), and MaxWait is the
			// upper bound on that wait, not a fixed stall.
			select {
			case b.sem <- struct{}{}:
				timer.Stop()
				b.run(batch, FlushDrain)
				batch = nil
			default:
			}
		case <-b.freed:
			// A flush slot opened up. Same group-commit rule as on arrival:
			// if a batch is pending and a slot is (still) free, flush it.
			if b.ctx.Err() != nil || len(batch) == 0 {
				continue
			}
			batch = b.scoop(batch)
			if len(batch) >= b.cfg.MaxSize {
				timer.Stop()
				b.dispatch(batch, FlushSize)
				batch = nil
				continue
			}
			select {
			case b.sem <- struct{}{}:
				timer.Stop()
				b.run(batch, FlushDrain)
				batch = nil
			default:
			}
		case <-timer.C:
			if len(batch) > 0 {
				b.dispatch(batch, FlushDeadline)
				batch = nil
			}
		case <-b.ctx.Done():
			fail(batch)
			// Shut the sender gate, then wait out submitters already past
			// it: each is at most a bounded select away from completing or
			// abandoning its send (b.ctx is already done, so none can park
			// on a full intake). Once the window is empty, everything that
			// will ever be enqueued is on the intake, and draining it
			// settles the last outstanding done signals.
			b.senders.Or(closingBit)
			for b.senders.Load()&(closingBit-1) != 0 {
				runtime.Gosched()
			}
			for {
				select {
				case it := <-b.in:
					fail([]*item{it})
				default:
					return
				}
			}
		}
	}
}

// scoop drains every request already buffered on the intake into batch,
// so a concurrent burst lands in one batch.
func (b *Batcher) scoop(batch []*item) []*item {
	for len(batch) < b.cfg.MaxSize {
		select {
		case it := <-b.in:
			batch = append(batch, it)
		default:
			return batch
		}
	}
	return batch
}

// dispatch hands one flushed batch to a worker goroutine, waiting for a
// concurrency slot (backpressure: the collector pauses accumulating new
// batches when Concurrency flushes are already solving).
func (b *Batcher) dispatch(batch []*item, reason string) {
	select {
	case b.sem <- struct{}{}:
	case <-b.ctx.Done():
		fail(batch)
		return
	}
	b.run(batch, reason)
}

// run hands one batch (whose flush slot is already acquired) to a worker
// goroutine. A flush never starts once the lifecycle has ended: the
// collector can pick an arrival or a freed slot over the done case of
// its select, and a batch flushed then would be solved and delivered
// after Close, where its submitters are owed ErrShutdown.
func (b *Batcher) run(batch []*item, reason string) {
	if b.ctx.Err() != nil {
		<-b.sem
		fail(batch)
		return
	}
	b.wg.Add(1)
	go func() {
		defer func() {
			<-b.sem
			// Wake the collector: capacity just freed, so a batch that was
			// accumulating only because every slot was busy can flush now
			// instead of waiting out its deadline.
			select {
			case b.freed <- struct{}{}:
			default:
			}
			b.wg.Done()
		}()
		b.execute(batch, reason)
	}()
}

// execute runs one batch through the caller's Run and delivers each
// member's outcome. It holds no lock and runs outside the collector, so
// neither submission nor accumulation ever blocks on a solve. The flush
// scratch (members view, out slice) and the batch's backing array are
// recycled, so a steady flush stream allocates nothing here.
func (b *Batcher) execute(batch []*item, reason string) {
	flushed := time.Now()
	fb, _ := b.bufs.Get().(*flushBuf)
	if fb == nil {
		fb = &flushBuf{}
	}
	members := fb.members[:0]
	var wait time.Duration
	for _, it := range batch {
		members = append(members, it.member)
		wait += flushed.Sub(it.queued)
	}
	out := fb.out
	if cap(out) < len(batch) {
		out = make([]MemberResult, len(batch))
	}
	out = out[:len(batch)]
	if b.cfg.Observe != nil {
		b.cfg.Observe(reason, len(batch), wait)
	}
	b.cfg.Run(b.ctx, members, out)
	responded := time.Now()
	for i, it := range batch {
		it.out = Outcome{
			Res:         out[i].Res,
			Err:         out[i].Err,
			Coalesced:   len(batch),
			FlushReason: reason,
			Queued:      it.queued,
			Flushed:     flushed,
			Responded:   responded,
		}
		it.done <- struct{}{}
	}
	// Drop every borrowed reference (contexts, instances, result slices)
	// before pooling; the delivered Outcomes hold their own copies.
	clear(members)
	clear(out)
	fb.members, fb.out = members, out[:0]
	b.bufs.Put(fb)
	clear(batch)
	batch = batch[:0]
	b.batches.Put(&batch)
}

// fail settles items with ErrShutdown (delivery never blocks: done is
// buffered).
func fail(batch []*item) {
	for _, it := range batch {
		it.out = Outcome{Err: ErrShutdown}
		it.done <- struct{}{}
	}
}
