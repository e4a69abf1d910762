package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcp"
)

// instantSolve resolves immediately with a one-class result.
func instantSolve(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
	return sfcp.Result{Labels: make([]int, len(ins.F)), NumClasses: 1}, false, nil
}

func tinyInstance() sfcp.Instance {
	return sfcp.Instance{F: []int{0, 1}, B: []int{0, 1}}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished while waiting for %s", id, want)
		}
		if s.State == want {
			return s
		}
		if s.State.Terminal() {
			t.Fatalf("job %s reached terminal %s (error %q), want %s", id, s.State, s.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Snapshot{}
}

func TestSubmitRunsToDone(t *testing.T) {
	m := New(Config{}, instantSolve)
	defer m.Close()
	snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateQueued || snap.ID == "" || snap.N != 2 {
		t.Fatalf("submit snapshot: %+v", snap)
	}
	done := waitState(t, m, snap.ID, StateDone)
	if done.NumClasses != 1 || done.FinishedAt == nil || done.StartedAt == nil {
		t.Fatalf("done snapshot: %+v", done)
	}
	res, s, err := m.Result(snap.ID)
	if err != nil || s.State != StateDone || len(res.Labels) != 2 {
		t.Fatalf("result: err=%v state=%s labels=%v", err, s.State, res.Labels)
	}
	c := m.Counts()
	if c.Submitted != 1 || c.Done != 1 || c.Queued != 0 || c.Running != 0 {
		t.Fatalf("counts: %+v", c)
	}
}

func TestFailedJob(t *testing.T) {
	boom := errors.New("solver exploded")
	m := New(Config{}, func(context.Context, sfcp.Algorithm, *uint64, sfcp.Instance, string) (sfcp.Result, bool, error) {
		return sfcp.Result{}, false, boom
	})
	defer m.Close()
	snap, err := m.Submit(sfcp.AlgorithmMoore, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, snap.ID, StateFailed)
	if failed.Error != boom.Error() {
		t.Fatalf("error %q, want %q", failed.Error, boom)
	}
	if _, s, err := m.Result(snap.ID); err != nil || s.State != StateFailed {
		t.Fatalf("result of failed job: err=%v state=%s", err, s.State)
	}
}

// TestPriorityOrder blocks the single dispatcher, queues jobs with mixed
// priorities, and checks execution order: priority desc, FIFO within.
func TestPriorityOrder(t *testing.T) {
	gate := make(chan struct{})
	var order []int
	var mu sync.Mutex
	m := New(Config{DispatchersPerAlgorithm: 1}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		<-gate
		mu.Lock()
		order = append(order, len(ins.F))
		mu.Unlock()
		return sfcp.Result{NumClasses: 1}, false, nil
	})
	defer m.Close()

	// First job occupies the dispatcher regardless of priority.
	first, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, sfcp.Instance{F: []int{0}, B: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)

	// n encodes submission order; priorities say run 3rd, 1st, 2nd.
	sizes := []struct{ n, prio int }{{2, 0}, {3, 5}, {4, 5}}
	var ids []string
	for _, s := range sizes {
		ins := sfcp.Instance{F: make([]int, s.n), B: make([]int, s.n)}
		snap, err := m.Submit(sfcp.AlgorithmLinear, nil, s.prio, ins)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	close(gate)
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 3, 4, 2} // first, then prio 5 FIFO (3 before 4), then prio 0
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestAutoAndLinearShareALane: "auto" resolves to linear, so auto and
// linear jobs wait in one queue with one crew of dispatchers. With one
// dispatcher, a priority-5 linear job waits for the running auto job,
// then runs before an auto job queued earlier at priority 0.
func TestAutoAndLinearShareALane(t *testing.T) {
	gate := make(chan struct{})
	var order []int
	var mu sync.Mutex
	m := New(Config{DispatchersPerAlgorithm: 1}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		mu.Lock()
		order = append(order, len(ins.F))
		mu.Unlock()
		select {
		case <-gate:
			return sfcp.Result{NumClasses: 1}, false, nil
		case <-ctx.Done():
			return sfcp.Result{}, false, ctx.Err()
		}
	})
	defer m.Close()
	sized := func(n int) sfcp.Instance { return sfcp.Instance{F: make([]int, n), B: make([]int, n)} }

	running, err := m.Submit(sfcp.AlgorithmAuto, nil, 0, sized(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	early, err := m.Submit(sfcp.AlgorithmAuto, nil, 0, sized(2))
	if err != nil {
		t.Fatal(err)
	}
	urgent, err := m.Submit(sfcp.AlgorithmLinear, nil, 5, sized(3))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if s, _ := m.Get(urgent.ID); s.State != StateQueued {
		t.Fatalf("linear job is %s while an auto job holds the lane's one dispatcher, want queued", s.State)
	}
	close(gate)
	for _, id := range []string{running.ID, early.ID, urgent.ID} {
		waitState(t, m, id, StateDone)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []int{1, 3, 2}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v (running auto, then priority 5 linear, then priority 0 auto)", order, want)
	}
}

// TestDispatchersPerLane: a default manager runs two dispatchers for each
// of the six lanes ("auto" has none of its own) plus the janitor.
func TestDispatchersPerLane(t *testing.T) {
	// Wait for goroutines left over from earlier tests to exit.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	m := New(Config{}, instantSolve)
	defer m.Close()
	if got, want := runtime.NumGoroutine()-before, 6*2+1; got != want {
		t.Errorf("a default manager started %d goroutines, want %d (12 dispatchers and the janitor)", got, want)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := New(Config{DispatchersPerAlgorithm: 1}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		select {
		case <-gate:
			return sfcp.Result{}, false, nil
		case <-ctx.Done():
			return sfcp.Result{}, false, ctx.Err()
		}
	})
	defer m.Close()
	blocker, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	queued, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := m.Cancel(queued.ID)
	if !ok || snap.State != StateCancelled {
		t.Fatalf("cancel queued: ok=%v state=%s", ok, snap.State)
	}
	if c := m.Counts(); c.Cancelled != 1 || c.Queued != 0 {
		t.Fatalf("counts after cancel: %+v", c)
	}
	// Idempotent.
	if snap, ok := m.Cancel(queued.ID); !ok || snap.State != StateCancelled {
		t.Fatalf("repeat cancel: ok=%v state=%s", ok, snap.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	m := New(Config{}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		started <- struct{}{}
		<-ctx.Done() // a cooperative solver: returns on cancellation
		return sfcp.Result{}, false, ctx.Err()
	})
	defer m.Close()
	snap, err := m.Submit(sfcp.AlgorithmParallelPRAM, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if s, ok := m.Cancel(snap.ID); !ok || s.State != StateRunning {
		t.Fatalf("cancel running: ok=%v state=%s (cancellation is cooperative)", ok, s.State)
	}
	waitState(t, m, snap.ID, StateCancelled)
}

// TestCancelBeatsCompletedSolve pins the race rule: a DELETE that lands
// while the solve finishes still yields cancelled, never a ghost result.
func TestCancelBeatsCompletedSolve(t *testing.T) {
	proceed := make(chan struct{})
	started := make(chan struct{}, 1)
	m := New(Config{}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		started <- struct{}{}
		<-proceed // ignores ctx: simulates a solve past its last check
		return sfcp.Result{NumClasses: 42}, false, nil
	})
	defer m.Close()
	snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m.Cancel(snap.ID)
	close(proceed)
	got := waitState(t, m, snap.ID, StateCancelled)
	if got.NumClasses != 0 {
		t.Fatalf("cancelled job leaked a result: %+v", got)
	}
}

func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := New(Config{MaxQueued: 2, DispatchersPerAlgorithm: 1}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		select {
		case <-gate:
			return sfcp.Result{}, false, nil
		case <-ctx.Done():
			return sfcp.Result{}, false, ctx.Err()
		}
	})
	defer m.Close()
	blocker, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance()); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
}

func TestTTLEviction(t *testing.T) {
	var clock atomic.Int64 // seconds
	cfg := Config{
		TTL:  30 * time.Second,
		Tick: time.Millisecond,
		now:  func() time.Time { return time.Unix(clock.Load(), 0) },
	}
	m := New(cfg, instantSolve)
	defer m.Close()
	snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)

	// Still inside the TTL: survives janitor ticks.
	time.Sleep(20 * time.Millisecond)
	if _, ok := m.Get(snap.ID); !ok {
		t.Fatal("job evicted before TTL")
	}
	clock.Store(31)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := m.Get(snap.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job not evicted after TTL")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if c := m.Counts(); c.Evicted != 1 {
		t.Fatalf("evicted count %d, want 1", c.Evicted)
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := New(Config{DispatchersPerAlgorithm: 1}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		select {
		case <-ctx.Done():
			return sfcp.Result{}, false, ctx.Err()
		case <-gate:
			return sfcp.Result{}, false, nil
		}
	})
	running, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	for _, id := range []string{running.ID, queued.ID} {
		if s, ok := m.Get(id); !ok || s.State != StateCancelled {
			t.Errorf("job %s after close: ok=%v state=%s", id, ok, s.State)
		}
	}
	if _, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance()); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestShutdownCancelsInFlightSolve pins the lifecycle-context contract:
// a running job's context derives from the scheduler's lifecycle context,
// so daemon shutdown (Close) cancels the solve itself — the dispatcher is
// not waiting politely for a minutes-long solve nobody can fetch.
func TestShutdownCancelsInFlightSolve(t *testing.T) {
	sawErr := make(chan error, 1)
	m := New(Config{DispatchersPerAlgorithm: 1}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		<-ctx.Done() // block until cancelled, like a long cooperative solve
		sawErr <- ctx.Err()
		return sfcp.Result{}, false, ctx.Err()
	})
	snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateRunning)
	m.Close() // returns only after the dispatcher finished the cancelled solve
	select {
	case err := <-sawErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("solve context ended with %v, want context.Canceled", err)
		}
	default:
		t.Fatal("Close returned but the in-flight solve never saw its context cancelled")
	}
	if s, ok := m.Get(snap.ID); !ok || s.State != StateCancelled {
		t.Errorf("job after shutdown: ok=%v state=%s, want cancelled", ok, s.State)
	}
}

func TestUnknownIDs(t *testing.T) {
	m := New(Config{}, instantSolve)
	defer m.Close()
	if _, ok := m.Get("nope"); ok {
		t.Error("Get of unknown id succeeded")
	}
	if _, _, err := m.Result("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result of unknown id: %v, want ErrNotFound", err)
	}
	if _, ok := m.Cancel("nope"); ok {
		t.Error("Cancel of unknown id succeeded")
	}
}
