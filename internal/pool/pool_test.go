package pool

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcp"
)

// These tests cover the lanes. The batch crew's tests sit in
// internal/server's pool_test.go, where its flush callback feeds the
// server's sfcpd_batcher_* metrics.

// linearBatch solves a batch pass the way the server's batch crew does.
func linearBatch(ctx context.Context, ins []sfcp.Instance) ([]sfcp.Result, []error) {
	return sfcp.NewSolver(sfcp.Options{}).SolveBatchPlanned(ctx, ins, BatchPlan)
}

func ignoreFlush(string, int, time.Duration) {}

// waitForSlot blocks until n goroutines wait for a lane slot. A slot
// wait is a select inside Run, so it shows in the goroutine dump.
func waitForSlot(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := 0
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("[select")) && bytes.Contains(g, []byte("pool.(*Pool).Run(")) {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d goroutines ever waited for a slot", got, n)
		}
	}
}

// TestLaneBoundsConcurrency: at most k solves of one algorithm run at
// once, the rest wait for a slot, and a full lane does not hold up
// another algorithm's lane.
func TestLaneBoundsConcurrency(t *testing.T) {
	const k, callers = 2, 6
	p := New(k, linearBatch, ignoreFlush)
	t.Cleanup(p.Close)
	ctx := context.Background()

	var running, peak atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Run(ctx, sfcp.AlgorithmLinear, func() error {
				n := running.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				<-release
				running.Add(-1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	waitForSlot(t, callers-k)
	for deadline := time.Now().Add(5 * time.Second); running.Load() != k; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d linear solves running with the rest waiting, want %d", running.Load(), k)
		}
	}

	other := make(chan error, 1)
	go func() { other <- p.Run(ctx, sfcp.AlgorithmMoore, func() error { return nil }) }()
	select {
	case err := <-other:
		if err != nil {
			t.Errorf("moore solve beside a full linear lane: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a full linear lane held up the moore lane")
	}

	close(release)
	wg.Wait()
	if n := peak.Load(); n != k {
		t.Errorf("peak of %d concurrent linear solves, want %d", n, k)
	}
}

// TestLaneWaiterContextEndsNeverRuns: a waiter whose context ends while
// it waits for a slot returns its context's error, and its solve never
// runs, not even once the slot comes free.
func TestLaneWaiterContextEndsNeverRuns(t *testing.T) {
	p := New(1, linearBatch, ignoreFlush)
	t.Cleanup(p.Close)
	started := make(chan struct{})
	release := make(chan struct{})
	held := make(chan error, 1)
	go func() {
		held <- p.Run(context.Background(), sfcp.AlgorithmLinear, func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	waiter := make(chan error, 1)
	go func() {
		waiter <- p.Run(ctx, sfcp.AlgorithmLinear, func() error {
			ran.Store(true)
			return nil
		})
	}()
	waitForSlot(t, 1)
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter got %v, want context.Canceled", err)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background(), sfcp.AlgorithmLinear, func() error { return nil }); err != nil {
		t.Errorf("slot not given back: %v", err)
	}
	if ran.Load() {
		t.Error("a waiter whose context ended ran its solve")
	}
}

// TestLaneCloseWaitsForRunning: Close fails slot waiters with
// ErrShutdown at once, returns only after the running solve gives its
// slot back, and returns again when called a second time.
func TestLaneCloseWaitsForRunning(t *testing.T) {
	p := New(1, linearBatch, ignoreFlush)
	started := make(chan struct{})
	release := make(chan struct{})
	held := make(chan error, 1)
	go func() {
		held <- p.Run(context.Background(), sfcp.AlgorithmLinear, func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		waiter <- p.Run(context.Background(), sfcp.AlgorithmLinear, func() error { return nil })
	}()
	waitForSlot(t, 1)

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case err := <-waiter:
		if !errors.Is(err, ErrShutdown) {
			t.Errorf("waiter got %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not fail the slot waiter")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a solve still held its slot")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-held; err != nil {
		t.Errorf("running solve: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the running solve ended")
	}

	again := make(chan struct{})
	go func() {
		p.Close()
		close(again)
	}()
	select {
	case <-again:
	case <-time.After(5 * time.Second):
		t.Fatal("a second Close never returned")
	}
}

// TestNewStartsOnlyTheBatchCrew: a fresh pool starts exactly GOMAXPROCS
// goroutines, the batch crew's workers, however many slots its lanes
// have; a lane solve runs on its caller.
func TestNewStartsOnlyTheBatchCrew(t *testing.T) {
	for _, slots := range []int{1, 2, 16} {
		before := settledGoroutines()
		p := New(slots, linearBatch, ignoreFlush)
		started := runtime.NumGoroutine() - before
		p.Close()
		if want := runtime.GOMAXPROCS(0); started != want {
			t.Errorf("New(%d, ...) started %d goroutines, want GOMAXPROCS = %d", slots, started, want)
		}
	}
}

// settledGoroutines is the goroutine count once goroutines left over
// from earlier tests have exited.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}
