package server

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/pool"
	"sfcp/internal/workload"
)

// batchDepth is the batch queue's capacity: two passes' worth.
const batchDepth = 2 * pool.BatchCap

// linearBatch solves a batch pass the way the server's batch crew does.
func linearBatch(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error) {
	return sfcp.NewSolver(sfcp.Options{}).SolveBatchPlanned(ctx, ins, pool.BatchPlan)
}

// smallInstance is a seeded random n-element instance and its labels.
func smallInstance(t *testing.T, seed int64, n int) (sfcp.Instance, []int) {
	t.Helper()
	wl := workload.RandomFunction(seed, n, 3)
	ins := sfcp.Instance{F: wl.F, B: wl.B}
	res, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
	if err != nil {
		t.Fatal(err)
	}
	return ins, res.Labels
}

// batchGate is a batch solve that can hold batch workers: a pass holding
// only the park instance reports on started, then blocks until a value
// arrives on release (or release closes, or the pool shuts down). Every
// other pass is solved by linearBatch, and solved counts its members.
type batchGate struct {
	park    sfcp.Instance
	started chan struct{}
	release chan struct{}
	solved  atomic.Int32
}

func newBatchGate() *batchGate {
	return &batchGate{
		park:    sfcp.Instance{F: []int{0}, B: []int{0}},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *batchGate) solve(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error) {
	if len(ins) == 1 && &ins[0].F[0] == &g.park.F[0] {
		g.started <- struct{}{}
		select {
		case <-g.release:
		case <-ctx.Done():
		}
		return make([]sfcp.Result, 1), make([]error, 1)
	}
	g.solved.Add(int32(len(ins)))
	return linearBatch(ctx, ins)
}

// parkAll holds every batch worker of p in a parked pass, one worker at a
// time (a held worker cannot take the next park), so that requests
// submitted afterwards stay queued.
func (g *batchGate) parkAll(p *pool.Pool) {
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		go p.Batch(context.Background(), g.park)
		<-g.started
	}
}

// submitBatch runs ins on p's batch crew as the execute stage does.
func submitBatch(ctx context.Context, p *pool.Pool, ins sfcp.Instance) solveOutcome {
	return fromBatch(p.Batch(ctx, ins))
}

// waitQueued blocks until n requests wait in the batch queue behind the
// parked workers: the pool's queue is internal to it, so this counts
// the goroutines blocked in Batch beyond one parked per worker.
func waitQueued(t *testing.T, n int) {
	t.Helper()
	waitBlocked(t, "pool.(*Pool).Batch(", runtime.GOMAXPROCS(0)+n)
}

// waitBlocked blocks until n goroutines sit in a select inside fn.
func waitBlocked(t *testing.T, fn string, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := 0
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("[select")) && bytes.Contains(g, []byte(fn)) {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d goroutines ever waited in %s", got, n, fn)
		}
	}
}

// submitAll submits every instance to the batch crew concurrently and
// returns a wait function yielding the positional outcomes.
func submitAll(p *pool.Pool, ctxs []context.Context, ins []sfcp.Instance) func() []solveOutcome {
	outs := make([]solveOutcome, len(ins))
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = submitBatch(ctxs[i], p, ins[i])
		}(i)
	}
	return func() []solveOutcome {
		wg.Wait()
		return outs
	}
}

func background(n int) []context.Context {
	ctxs := make([]context.Context, n)
	for i := range ctxs {
		ctxs[i] = context.Background()
	}
	return ctxs
}

// TestBatchCrewFlushOnSize: pool.BatchCap requests queued behind busy workers
// close one pass with reason "size", each member gets its own labels, and
// the pass is reported to the sfcpd_batcher_* families.
func TestBatchCrewFlushOnSize(t *testing.T) {
	g := newBatchGate()
	m := newMetrics()
	p := pool.New(1, g.solve, m.batcherFlush)
	t.Cleanup(p.Close)
	g.parkAll(p)

	ins := make([]sfcp.Instance, pool.BatchCap)
	want := make([][]int, pool.BatchCap)
	for i := range ins {
		ins[i], want[i] = smallInstance(t, int64(i), 8+i)
	}
	wait := submitAll(p, background(pool.BatchCap), ins)
	waitQueued(t, pool.BatchCap)
	g.release <- struct{}{} // one worker comes free and takes the whole queue
	for i, out := range wait() {
		if out.err != nil {
			t.Fatalf("member %d: %v", i, out.err)
		}
		if out.flushReason != pool.FlushSize || out.coalesced != pool.BatchCap {
			t.Errorf("member %d: pass (%q, %d), want (%q, %d)", i, out.flushReason, out.coalesced, pool.FlushSize, pool.BatchCap)
		}
		if !reflect.DeepEqual(out.res.Labels, want[i]) {
			t.Errorf("member %d: labels are not its own (positional delivery broken)", i)
		}
		if out.queueWait <= 0 {
			t.Errorf("member %d: queue wait %v, want > 0", i, out.queueWait)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.batcherFlushes[pool.FlushSize] != 1 || m.batcherQueueWait <= 0 {
		t.Errorf("metrics saw %v size passes and %v queue wait, want 1 and > 0", m.batcherFlushes, m.batcherQueueWait)
	}
}

// TestBatchCrewFlushOnDrain: a lone request with a free worker runs at
// once, in a pass of its own with reason "drain".
func TestBatchCrewFlushOnDrain(t *testing.T) {
	m := newMetrics()
	p := pool.New(1, linearBatch, m.batcherFlush)
	t.Cleanup(p.Close)
	ins, want := smallInstance(t, 1, 40)
	out := submitBatch(context.Background(), p, ins)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.flushReason != pool.FlushDrain || out.coalesced != 1 {
		t.Errorf("pass (%q, %d), want (%q, 1)", out.flushReason, out.coalesced, pool.FlushDrain)
	}
	if !reflect.DeepEqual(out.res.Labels, want) {
		t.Error("labels differ from the linear solver's")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.batcherFlushes[pool.FlushDrain] != 1 || m.batcherCoalesced != 1 || m.batcherQueueCount != 1 {
		t.Errorf("metrics saw passes %v, %d members, %d waits; want one drain pass of 1", m.batcherFlushes, m.batcherCoalesced, m.batcherQueueCount)
	}
}

// TestBatchCrewCtxCancelWhileQueued: a member whose context ends while it
// is queued gets its context's error and is not solved; its siblings in
// the same pass still solve.
func TestBatchCrewCtxCancelWhileQueued(t *testing.T) {
	g := newBatchGate()
	p := pool.New(1, g.solve, newMetrics().batcherFlush)
	t.Cleanup(p.Close)
	g.parkAll(p)

	ctx, cancel := context.WithCancel(context.Background())
	ctxs := []context.Context{ctx, context.Background(), context.Background()}
	ins := make([]sfcp.Instance, 3)
	want := make([][]int, 3)
	for i := range ins {
		ins[i], want[i] = smallInstance(t, int64(10+i), 30)
	}
	wait := submitAll(p, ctxs, ins)
	waitQueued(t, 3)
	cancel()
	g.release <- struct{}{}
	outs := wait()
	if !errors.Is(outs[0].err, context.Canceled) {
		t.Errorf("cancelled member got %v, want context.Canceled", outs[0].err)
	}
	for i := 1; i < 3; i++ {
		if outs[i].err != nil || !reflect.DeepEqual(outs[i].res.Labels, want[i]) || outs[i].coalesced != 3 {
			t.Errorf("sibling %d: err %v, coalesced %d, labels ok %v", i, outs[i].err, outs[i].coalesced,
				reflect.DeepEqual(outs[i].res.Labels, want[i]))
		}
	}
	if n := g.solved.Load(); n != 2 {
		t.Errorf("%d members solved, want 2 (the cancelled one skipped)", n)
	}
}

// TestBatchCrewErrorIsolation: an invalid member fails alone; its siblings
// in the same pass solve.
func TestBatchCrewErrorIsolation(t *testing.T) {
	g := newBatchGate()
	p := pool.New(1, g.solve, newMetrics().batcherFlush)
	t.Cleanup(p.Close)
	g.parkAll(p)

	good0, want0 := smallInstance(t, 20, 25)
	good2, want2 := smallInstance(t, 22, 35)
	bad := sfcp.Instance{F: []int{5}, B: []int{0}} // F out of range
	wait := submitAll(p, background(3), []sfcp.Instance{good0, bad, good2})
	waitQueued(t, 3)
	g.release <- struct{}{}
	outs := wait()
	if outs[1].err == nil {
		t.Error("invalid member solved")
	}
	for i, want := range map[int][]int{0: want0, 2: want2} {
		if outs[i].err != nil || !reflect.DeepEqual(outs[i].res.Labels, want) {
			t.Errorf("valid member %d failed alongside its invalid sibling: %v", i, outs[i].err)
		}
	}
	if outs[0].coalesced != 3 {
		t.Errorf("members shared a pass of %d, want 3", outs[0].coalesced)
	}
}

// TestBatchCrewConcurrentSubmits hammers the batch crew from many
// goroutines (under -race, the crew's data-race coverage) and checks that
// every submitter gets its own labels back.
func TestBatchCrewConcurrentSubmits(t *testing.T) {
	m := newMetrics()
	p := pool.New(1, linearBatch, m.batcherFlush)
	t.Cleanup(p.Close)
	const sizes, clients, perClient = 32, 64, 20
	ins := make([]sfcp.Instance, sizes)
	want := make([][]int, sizes)
	for i := range ins {
		ins[i], want[i] = smallInstance(t, int64(i), i+1)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				k := (c*perClient + r) % sizes
				out := submitBatch(context.Background(), p, ins[k])
				if out.err != nil || !reflect.DeepEqual(out.res.Labels, want[k]) {
					t.Errorf("client %d req %d: err %v or another member's labels", c, r, out.err)
					return
				}
				if out.coalesced < 1 || out.coalesced > pool.BatchCap {
					t.Errorf("client %d req %d: coalesced %d out of [1,%d]", c, r, out.coalesced, pool.BatchCap)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	passes := m.batcherFlushes[pool.FlushSize] + m.batcherFlushes[pool.FlushDrain]
	if total := int64(clients * perClient); m.batcherCoalesced != total || passes < 1 || passes > total {
		t.Fatalf("metrics saw %d members in %d passes, want %d members", m.batcherCoalesced, passes, total)
	}
	t.Logf("%d requests in %d passes (avg %.1f)", m.batcherCoalesced, passes, float64(m.batcherCoalesced)/float64(passes))
}

// TestBatchCrewReportsPasses: each pass is reported to the
// sfcpd_batcher_* families when it starts, with its reason and member
// count; requests still queued are not counted. The park passes show up
// as drain passes of one before the size pass queued behind them.
func TestBatchCrewReportsPasses(t *testing.T) {
	g := newBatchGate()
	m := newMetrics()
	p := pool.New(1, g.solve, m.batcherFlush)
	t.Cleanup(p.Close)
	type report struct{ drain, size, members, waits int64 }
	snapshot := func() report {
		m.mu.Lock()
		defer m.mu.Unlock()
		return report{m.batcherFlushes[pool.FlushDrain], m.batcherFlushes[pool.FlushSize], m.batcherCoalesced, m.batcherQueueCount}
	}
	g.parkAll(p)
	workers := int64(runtime.GOMAXPROCS(0))
	parked := report{drain: workers, members: workers, waits: workers}
	if got := snapshot(); got != parked {
		t.Fatalf("after parking every worker: %+v, want %+v", got, parked)
	}

	ins := make([]sfcp.Instance, pool.BatchCap)
	for i := range ins {
		ins[i], _ = smallInstance(t, int64(i), 8)
	}
	wait := submitAll(p, background(pool.BatchCap), ins)
	waitQueued(t, pool.BatchCap)
	if got := snapshot(); got != parked {
		t.Errorf("queued requests were reported before their pass: %+v, want %+v", got, parked)
	}
	g.release <- struct{}{}
	for i, out := range wait() {
		if out.err != nil {
			t.Fatalf("member %d: %v", i, out.err)
		}
	}
	want := report{drain: workers, size: 1, members: workers + pool.BatchCap, waits: workers + pool.BatchCap}
	if got := snapshot(); got != want {
		t.Errorf("after the size pass: %+v, want %+v", got, want)
	}
}

// TestBatchCrewCloseFailsQueued: passes run under the pool's lifecycle, so
// close alone ends a parked pass; a member still queued behind it is never
// solved and gets pool.ErrShutdown.
func TestBatchCrewCloseFailsQueued(t *testing.T) {
	g := newBatchGate()
	p := pool.New(1, g.solve, newMetrics().batcherFlush)
	g.parkAll(p)
	ins, _ := smallInstance(t, 30, 20)
	wait := submitAll(p, background(1), []sfcp.Instance{ins})
	waitQueued(t, 1)

	// Nothing is ever sent on g.release: only close can unpark the workers.
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("pool.close never returned: a parked pass did not see the lifecycle end")
	}
	if out := wait()[0]; !errors.Is(out.err, pool.ErrShutdown) {
		t.Errorf("queued member got %v, want pool.ErrShutdown", out.err)
	}
	if n := g.solved.Load(); n != 0 {
		t.Errorf("%d queued members solved after close, want 0", n)
	}
}

// TestBatchCrewCloseFailsBlockedSubmit: a submitter blocked on a full batch
// queue has no deadline of its own to end the wait; closing the pool must
// fail it with pool.ErrShutdown, along with every member queued ahead of it.
func TestBatchCrewCloseFailsBlockedSubmit(t *testing.T) {
	g := newBatchGate()
	p := pool.New(1, g.solve, newMetrics().batcherFlush)
	g.parkAll(p)
	ins, _ := smallInstance(t, 31, 12)
	full := make([]sfcp.Instance, batchDepth)
	for i := range full {
		full[i] = ins
	}
	waitFull := submitAll(p, background(batchDepth), full)
	waitQueued(t, batchDepth)
	errc := make(chan error, 1)
	go func() { errc <- submitBatch(context.Background(), p, ins).err }()
	// Let the extra submitter reach its send on the full queue. Had close
	// won the race, the submit would fail the same way: the contract is
	// pool.ErrShutdown either way.
	time.Sleep(10 * time.Millisecond)

	p.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, pool.ErrShutdown) {
			t.Errorf("blocked submitter got %v, want pool.ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked submitter never settled after close")
	}
	for i, out := range waitFull() {
		if !errors.Is(out.err, pool.ErrShutdown) {
			t.Errorf("queued member %d got %v, want pool.ErrShutdown", i, out.err)
		}
	}
	if n := g.solved.Load(); n != 0 {
		t.Errorf("%d queued members solved after close, want 0", n)
	}
}

// TestBatchCrewSubmitAfterClose: once close has returned, a batch submit
// fails at once with pool.ErrShutdown and nothing is solved.
func TestBatchCrewSubmitAfterClose(t *testing.T) {
	g := newBatchGate()
	p := pool.New(1, g.solve, newMetrics().batcherFlush)
	p.Close()
	ins, _ := smallInstance(t, 32, 10)
	done := make(chan error, 1)
	go func() { done <- submitBatch(context.Background(), p, ins).err }()
	select {
	case err := <-done:
		if !errors.Is(err, pool.ErrShutdown) {
			t.Errorf("batch submit after close: %v, want pool.ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch submit after close never returned")
	}
	if n := g.solved.Load(); n != 0 {
		t.Errorf("%d members solved after close, want 0", n)
	}
}

// TestPoolCloseDoesNotExecuteQueued pins the shutdown contract: close
// documents waiting requests as dropped (their submitters get
// pool.ErrShutdown), so neither a slot waiter on a lane nor a member
// queued for the batch crew may run once close has begun, and submits
// after close fail at once. Without the closed check after winning a
// slot or a queued member, the unbiased selects would randomly run
// waiting work after close.
func TestPoolCloseDoesNotExecuteQueued(t *testing.T) {
	const queued = 8
	g := newBatchGate()
	p := pool.New(1, g.solve, newMetrics().batcherFlush)
	ctx := context.Background()

	// Hold the linear lane's single slot, and park every batch worker
	// inside a pass, so everything submitted behind them waits.
	started := make(chan struct{})
	release := make(chan struct{})
	go p.Run(ctx, sfcp.AlgorithmLinear, func() error {
		close(started)
		<-release
		return nil
	})
	<-started
	g.parkAll(p)

	// Fill both queues behind the parked workers.
	var executed atomic.Int32
	var wg sync.WaitGroup
	errs := make([]error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Run(ctx, sfcp.AlgorithmLinear, func() error {
				executed.Add(1)
				return nil
			})
		}(i)
	}
	ins := make([]sfcp.Instance, queued)
	for i := range ins {
		ins[i], _ = smallInstance(t, int64(i), 16)
	}
	waitBatch := submitAll(p, background(queued), ins)
	// Wait until all wait for the slot or sit in the batch queue.
	waitBlocked(t, "pool.(*Pool).Run(", queued)
	waitQueued(t, queued)

	// Close while the workers are still parked, then let them run: on
	// their way out they must drain the queues without executing anything.
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// close blocks until the parked workers exit and the held slot comes
	// back, but it cancels the lifecycle first, and from then on a solve
	// on an idle lane fails. Wait for that signal before releasing
	// anything, so every waiter provably observes a closing pool.
	for p.Run(ctx, sfcp.AlgorithmMoore, func() error { return nil }) == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	close(g.release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("pool.close never returned")
	}
	wg.Wait()

	if n := executed.Load(); n != 0 {
		t.Errorf("%d queued tasks executed after close; close documents them as dropped", n)
	}
	if n := g.solved.Load(); n != 0 {
		t.Errorf("%d queued batch members solved after close; close documents them as dropped", n)
	}
	for i, err := range errs {
		if !errors.Is(err, pool.ErrShutdown) {
			t.Errorf("queued submitter %d got %v, want pool.ErrShutdown", i, err)
		}
	}
	for i, out := range waitBatch() {
		if !errors.Is(out.err, pool.ErrShutdown) {
			t.Errorf("queued batch member %d got %v, want pool.ErrShutdown", i, out.err)
		}
	}
	if err := submitBatch(ctx, p, ins[0]).err; !errors.Is(err, pool.ErrShutdown) {
		t.Errorf("batch submit after close: %v, want pool.ErrShutdown", err)
	}
	if err := p.Run(ctx, sfcp.AlgorithmMoore, nil); !errors.Is(err, pool.ErrShutdown) {
		t.Errorf("submit after close: %v, want pool.ErrShutdown", err)
	}
}
