package server

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/workload"
)

// linearBatch solves a batch pass the way the server's batch crew does.
func linearBatch(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error) {
	return sfcp.NewSolver(sfcp.Options{}).SolveBatchPlanned(ctx, ins, batchPlan)
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
func (g *batchGate) parkAll(p *pool) {
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		go p.submitBatch(context.Background(), g.park)
		<-g.started
	}
}

// waitQueued blocks until q holds n tasks.
func waitQueued(t *testing.T, q chan *poolTask, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(q) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d/%d", len(q), n)
		}
	}
}

// submitAll submits every instance to the batch crew concurrently and
// returns a wait function yielding the positional outcomes.
func submitAll(p *pool, ctxs []context.Context, ins []sfcp.Instance) func() []solveOutcome {
	outs := make([]solveOutcome, len(ins))
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = p.submitBatch(ctxs[i], ins[i])
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

// TestBatchCrewFlushOnSize: batchCap requests queued behind busy workers
// close one pass with reason "size", each member gets its own labels, and
// the pass is reported to the sfcpd_batcher_* families.
func TestBatchCrewFlushOnSize(t *testing.T) {
	g := newBatchGate()
	m := newMetrics()
	p := newPool(1, 1, g.solve, m)
	t.Cleanup(p.close)
	g.parkAll(p)

	ins := make([]sfcp.Instance, batchCap)
	want := make([][]int, batchCap)
	for i := range ins {
		ins[i], want[i] = smallInstance(t, int64(i), 8+i)
	}
	wait := submitAll(p, background(batchCap), ins)
	waitQueued(t, p.batch, batchCap)
	g.release <- struct{}{} // one worker comes free and takes the whole queue
	for i, out := range wait() {
		if out.err != nil {
			t.Fatalf("member %d: %v", i, out.err)
		}
		if out.flushReason != flushSize || out.coalesced != batchCap {
			t.Errorf("member %d: pass (%q, %d), want (%q, %d)", i, out.flushReason, out.coalesced, flushSize, batchCap)
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
	if m.batcherFlushes[flushSize] != 1 || m.batcherQueueWait <= 0 {
		t.Errorf("metrics saw %v size passes and %v queue wait, want 1 and > 0", m.batcherFlushes, m.batcherQueueWait)
	}
}

// TestBatchCrewFlushOnDrain: a lone request with a free worker runs at
// once, in a pass of its own with reason "drain".
func TestBatchCrewFlushOnDrain(t *testing.T) {
	m := newMetrics()
	p := newPool(1, 1, linearBatch, m)
	t.Cleanup(p.close)
	ins, want := smallInstance(t, 1, 40)
	out := p.submitBatch(context.Background(), ins)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.flushReason != flushDrain || out.coalesced != 1 {
		t.Errorf("pass (%q, %d), want (%q, 1)", out.flushReason, out.coalesced, flushDrain)
	}
	if !reflect.DeepEqual(out.res.Labels, want) {
		t.Error("labels differ from the linear solver's")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.batcherFlushes[flushDrain] != 1 || m.batcherCoalesced != 1 || m.batcherQueueCount != 1 {
		t.Errorf("metrics saw passes %v, %d members, %d waits; want one drain pass of 1", m.batcherFlushes, m.batcherCoalesced, m.batcherQueueCount)
	}
}

// TestBatchCrewCtxCancelWhileQueued: a member whose context ends while it
// is queued gets its context's error and is not solved; its siblings in
// the same pass still solve.
func TestBatchCrewCtxCancelWhileQueued(t *testing.T) {
	g := newBatchGate()
	p := newPool(1, 1, g.solve, newMetrics())
	t.Cleanup(p.close)
	g.parkAll(p)

	ctx, cancel := context.WithCancel(context.Background())
	ctxs := []context.Context{ctx, context.Background(), context.Background()}
	ins := make([]sfcp.Instance, 3)
	want := make([][]int, 3)
	for i := range ins {
		ins[i], want[i] = smallInstance(t, int64(10+i), 30)
	}
	wait := submitAll(p, ctxs, ins)
	waitQueued(t, p.batch, 3)
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
	p := newPool(1, 1, g.solve, newMetrics())
	t.Cleanup(p.close)
	g.parkAll(p)

	good0, want0 := smallInstance(t, 20, 25)
	good2, want2 := smallInstance(t, 22, 35)
	bad := sfcp.Instance{F: []int{5}, B: []int{0}} // F out of range
	wait := submitAll(p, background(3), []sfcp.Instance{good0, bad, good2})
	waitQueued(t, p.batch, 3)
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
	p := newPool(1, 1, linearBatch, m)
	t.Cleanup(p.close)
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
				out := p.submitBatch(context.Background(), ins[k])
				if out.err != nil || !reflect.DeepEqual(out.res.Labels, want[k]) {
					t.Errorf("client %d req %d: err %v or another member's labels", c, r, out.err)
					return
				}
				if out.coalesced < 1 || out.coalesced > batchCap {
					t.Errorf("client %d req %d: coalesced %d out of [1,%d]", c, r, out.coalesced, batchCap)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	passes := m.batcherFlushes[flushSize] + m.batcherFlushes[flushDrain]
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
	p := newPool(1, 1, g.solve, m)
	t.Cleanup(p.close)
	type report struct{ drain, size, members, waits int64 }
	snapshot := func() report {
		m.mu.Lock()
		defer m.mu.Unlock()
		return report{m.batcherFlushes[flushDrain], m.batcherFlushes[flushSize], m.batcherCoalesced, m.batcherQueueCount}
	}
	g.parkAll(p)
	workers := int64(runtime.GOMAXPROCS(0))
	parked := report{drain: workers, members: workers, waits: workers}
	if got := snapshot(); got != parked {
		t.Fatalf("after parking every worker: %+v, want %+v", got, parked)
	}

	ins := make([]sfcp.Instance, batchCap)
	for i := range ins {
		ins[i], _ = smallInstance(t, int64(i), 8)
	}
	wait := submitAll(p, background(batchCap), ins)
	waitQueued(t, p.batch, batchCap)
	if got := snapshot(); got != parked {
		t.Errorf("queued requests were reported before their pass: %+v, want %+v", got, parked)
	}
	g.release <- struct{}{}
	for i, out := range wait() {
		if out.err != nil {
			t.Fatalf("member %d: %v", i, out.err)
		}
	}
	want := report{drain: workers, size: 1, members: workers + batchCap, waits: workers + batchCap}
	if got := snapshot(); got != want {
		t.Errorf("after the size pass: %+v, want %+v", got, want)
	}
}

// TestBatchCrewCloseFailsQueued: passes run under the pool's lifecycle, so
// close alone ends a parked pass; a member still queued behind it is never
// solved and gets errShutdown.
func TestBatchCrewCloseFailsQueued(t *testing.T) {
	g := newBatchGate()
	p := newPool(1, 1, g.solve, newMetrics())
	g.parkAll(p)
	ins, _ := smallInstance(t, 30, 20)
	wait := submitAll(p, background(1), []sfcp.Instance{ins})
	waitQueued(t, p.batch, 1)

	// Nothing is ever sent on g.release: only close can unpark the workers.
	closed := make(chan struct{})
	go func() {
		p.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("pool.close never returned: a parked pass did not see the lifecycle end")
	}
	if out := wait()[0]; !errors.Is(out.err, errShutdown) {
		t.Errorf("queued member got %v, want errShutdown", out.err)
	}
	if n := g.solved.Load(); n != 0 {
		t.Errorf("%d queued members solved after close, want 0", n)
	}
}

// TestBatchCrewCloseFailsBlockedSubmit: a submitter blocked on a full batch
// queue has no deadline of its own to end the wait; closing the pool must
// fail it with errShutdown, along with every member queued ahead of it.
func TestBatchCrewCloseFailsBlockedSubmit(t *testing.T) {
	g := newBatchGate()
	p := newPool(1, 1, g.solve, newMetrics())
	g.parkAll(p)
	ins, _ := smallInstance(t, 31, 12)
	full := make([]sfcp.Instance, batchDepth)
	for i := range full {
		full[i] = ins
	}
	waitFull := submitAll(p, background(batchDepth), full)
	waitQueued(t, p.batch, batchDepth)
	errc := make(chan error, 1)
	go func() { errc <- p.submitBatch(context.Background(), ins).err }()
	// Let the extra submitter reach its send on the full queue. Had close
	// won the race, the submit would fail the same way: the contract is
	// errShutdown either way.
	time.Sleep(10 * time.Millisecond)

	p.close()
	select {
	case err := <-errc:
		if !errors.Is(err, errShutdown) {
			t.Errorf("blocked submitter got %v, want errShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked submitter never settled after close")
	}
	for i, out := range waitFull() {
		if !errors.Is(out.err, errShutdown) {
			t.Errorf("queued member %d got %v, want errShutdown", i, out.err)
		}
	}
	if n := g.solved.Load(); n != 0 {
		t.Errorf("%d queued members solved after close, want 0", n)
	}
}

// TestBatchCrewSubmitAfterClose: once close has returned, a batch submit
// fails at once with errShutdown and nothing is solved.
func TestBatchCrewSubmitAfterClose(t *testing.T) {
	g := newBatchGate()
	p := newPool(1, 1, g.solve, newMetrics())
	p.close()
	ins, _ := smallInstance(t, 32, 10)
	done := make(chan error, 1)
	go func() { done <- p.submitBatch(context.Background(), ins).err }()
	select {
	case err := <-done:
		if !errors.Is(err, errShutdown) {
			t.Errorf("batch submit after close: %v, want errShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch submit after close never returned")
	}
	if n := g.solved.Load(); n != 0 {
		t.Errorf("%d members solved after close, want 0", n)
	}
}

// TestPoolCloseDoesNotExecuteQueued pins the shutdown contract: close
// documents queued-but-unstarted requests as dropped (their submitters get
// errShutdown), so a closing worker — on an algorithm crew or the batch
// crew — must never execute them, and submits after close fail at once.
// Before the priority done-check the worker's unbiased select would
// randomly drain and run queued tasks after close.
func TestPoolCloseDoesNotExecuteQueued(t *testing.T) {
	const queued = 8
	g := newBatchGate()
	p := newPool(1, queued, g.solve, newMetrics())
	ctx := context.Background()

	// Park the single linear worker inside a task, and every batch worker
	// inside a pass, so everything submitted behind them stays queued.
	started := make(chan struct{})
	release := make(chan struct{})
	go p.submit(ctx, sfcp.AlgorithmLinear, func(context.Context) (sfcp.Result, error) {
		close(started)
		<-release
		return sfcp.Result{}, nil
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
			errs[i] = p.submit(ctx, sfcp.AlgorithmLinear, func(context.Context) (sfcp.Result, error) {
				executed.Add(1)
				return sfcp.Result{}, nil
			}).err
		}(i)
	}
	ins := make([]sfcp.Instance, queued)
	for i := range ins {
		ins[i], _ = smallInstance(t, int64(i), 16)
	}
	waitBatch := submitAll(p, background(queued), ins)
	// Wait until all sit in their queues (buffered channels, so the sends
	// complete as soon as there is room; poll for the fill).
	waitQueued(t, p.queues[sfcp.AlgorithmLinear], queued)
	waitQueued(t, p.batch, queued)

	// Close while the workers are still parked, then let them run: on
	// their way out they must drain the queues without executing anything.
	closed := make(chan struct{})
	go func() {
		p.close()
		close(closed)
	}()
	// close blocks in wg.Wait until the parked workers exit, but the
	// lifecycle context is cancelled first — wait for that signal before
	// releasing the workers, so they provably observe a closing pool when
	// they next hit their queues.
	<-p.ctx.Done()
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
		if !errors.Is(err, errShutdown) {
			t.Errorf("queued submitter %d got %v, want errShutdown", i, err)
		}
	}
	for i, out := range waitBatch() {
		if !errors.Is(out.err, errShutdown) {
			t.Errorf("queued batch member %d got %v, want errShutdown", i, out.err)
		}
	}
	if err := p.submitBatch(ctx, ins[0]).err; !errors.Is(err, errShutdown) {
		t.Errorf("batch submit after close: %v, want errShutdown", err)
	}
	if err := p.submit(ctx, sfcp.AlgorithmMoore, nil).err; !errors.Is(err, errShutdown) {
		t.Errorf("submit after close: %v, want errShutdown", err)
	}
}
