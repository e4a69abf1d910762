package batcher

import (
	"bytes"
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

// echoRun answers each member with NumClasses = len(member.Ins.F), so
// tests can check positional delivery without a real solver.
func echoRun(_ context.Context, members []Member, out []MemberResult) {
	for i, m := range members {
		out[i] = MemberResult{Res: sfcp.Result{NumClasses: len(m.Ins.F)}}
	}
}

func tinyInstance(n int) sfcp.Instance {
	f := make([]int, n)
	b := make([]int, n)
	for i := range f {
		f[i] = (i + 1) % n
	}
	return sfcp.Instance{F: f, B: b}
}

// parkGate occupies b's single flush slot with a one-member batch whose
// Run blocks until release is closed (or the batcher's lifecycle context
// ends, so Close can always join a parked flush). Subsequent submissions
// must then accumulate instead of drain-flushing one by one. The batcher
// must be built with Concurrency: 1 and a Run that routes the "park" key
// through parkGate.
func parkGate(ctx context.Context, members []Member, started chan<- struct{}, release <-chan struct{}) bool {
	if len(members) == 1 && members[0].Key == "park" {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return true
	}
	return false
}

// waitDispatching blocks until the collector is inside dispatch, waiting
// for a flush slot for a batch whose size or deadline flush already fired.
// Goroutine stacks are the only view of that state; a sleep would only
// make it likely.
func waitDispatching(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Batcher).dispatch(")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the collector never reached dispatch")
		}
	}
}

func TestFlushOnSize(t *testing.T) {
	const size = 4
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	b := New(context.Background(), Config{
		MaxWait:     time.Hour, // deadline can never fire
		MaxSize:     size,
		Concurrency: 1,
		Run: func(ctx context.Context, members []Member, out []MemberResult) {
			parkGate(ctx, members, started, release)
			echoRun(nil, members, out)
		},
	})
	defer b.Close()

	// Occupy the only flush slot so the four submissions below coalesce
	// instead of drain-flushing individually.
	go b.Submit(context.Background(), tinyInstance(1), "park")
	<-started

	var wg sync.WaitGroup
	outs := make([]Outcome, size)
	errs := make([]error, size)
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = b.Submit(context.Background(), tinyInstance(i+1), "")
		}(i)
	}
	// Give the submissions time to reach the collector, then let the
	// parked batch go; the size-4 batch flushes behind it.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	for i := 0; i < size; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if outs[i].FlushReason != FlushSize {
			t.Errorf("submit %d: flush reason %q, want %q", i, outs[i].FlushReason, FlushSize)
		}
		if outs[i].Coalesced != size {
			t.Errorf("submit %d: coalesced %d, want %d", i, outs[i].Coalesced, size)
		}
		if outs[i].Res.NumClasses != i+1 {
			t.Errorf("submit %d: got member result %d, want %d (positional delivery broken)",
				i, outs[i].Res.NumClasses, i+1)
		}
		if outs[i].Queued.After(outs[i].Flushed) || outs[i].Flushed.After(outs[i].Responded) {
			t.Errorf("submit %d: timestamps out of order: queued=%v flushed=%v responded=%v",
				i, outs[i].Queued, outs[i].Flushed, outs[i].Responded)
		}
		if outs[i].QueueWait() < 0 {
			t.Errorf("submit %d: negative queue wait %v", i, outs[i].QueueWait())
		}
	}
}

func TestFlushOnDeadline(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	b := New(context.Background(), Config{
		MaxWait:     5 * time.Millisecond,
		MaxSize:     1 << 20, // a size flush can never fire
		Concurrency: 1,
		Run: func(ctx context.Context, members []Member, out []MemberResult) {
			parkGate(ctx, members, started, release)
			echoRun(nil, members, out)
		},
	})
	defer b.Close()

	// With the only slot parked, the submission below cannot drain-flush;
	// its batch expires on the deadline and dispatches once the slot
	// frees.
	go b.Submit(context.Background(), tinyInstance(1), "park")
	<-started

	outc := make(chan Outcome, 1)
	errc := make(chan error, 1)
	go func() {
		out, err := b.Submit(context.Background(), tinyInstance(3), "k")
		outc <- out
		errc <- err
	}()
	// Free the slot only once the expired batch waits in dispatch: freed
	// any earlier, while the batch still sits in the collector, the slot
	// would drain-flush it instead.
	waitDispatching(t)
	close(release)
	out, err := <-outc, <-errc
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if out.FlushReason != FlushDeadline {
		t.Errorf("flush reason %q, want %q", out.FlushReason, FlushDeadline)
	}
	if out.Coalesced != 1 {
		t.Errorf("coalesced %d, want 1", out.Coalesced)
	}
	if wait := out.QueueWait(); wait < 5*time.Millisecond {
		t.Errorf("queue wait %v shorter than the %v deadline", wait, 5*time.Millisecond)
	}
}

// TestFlushOnDrain pins the adaptive group-commit path: a lone request
// with a free flush slot goes out immediately instead of stalling for
// MaxWait, and a concurrent burst behind a busy slot coalesces.
func TestFlushOnDrain(t *testing.T) {
	b := New(context.Background(), Config{
		MaxWait: time.Hour, // only the drain path can flush this
		MaxSize: 1 << 20,
		Run:     echoRun,
	})
	defer b.Close()

	start := time.Now()
	out, err := b.Submit(context.Background(), tinyInstance(3), "k")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if out.FlushReason != FlushDrain {
		t.Errorf("flush reason %q, want %q", out.FlushReason, FlushDrain)
	}
	if out.Coalesced != 1 {
		t.Errorf("coalesced %d, want 1", out.Coalesced)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("drain flush took %v; it must not wait out MaxWait", elapsed)
	}
}

func TestErrorIsolation(t *testing.T) {
	sentinel := errors.New("member 1 is bad")
	const size = 3
	b := New(context.Background(), Config{
		MaxWait: time.Hour,
		MaxSize: size,
		Run: func(_ context.Context, members []Member, out []MemberResult) {
			for i, m := range members {
				if m.Key == "bad" {
					out[i] = MemberResult{Err: sentinel}
					continue
				}
				out[i] = MemberResult{Res: sfcp.Result{NumClasses: len(m.Ins.F)}}
			}
		},
	})
	defer b.Close()

	keys := []string{"ok", "bad", "ok"}
	var wg sync.WaitGroup
	outs := make([]Outcome, size)
	errs := make([]error, size)
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = b.Submit(context.Background(), tinyInstance(i+1), keys[i])
		}(i)
	}
	wg.Wait()
	if !errors.Is(errs[1], sentinel) {
		t.Errorf("bad member error = %v, want %v", errs[1], sentinel)
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("good member %d failed alongside its bad sibling: %v", i, errs[i])
		}
		if outs[i].Res.NumClasses != i+1 {
			t.Errorf("good member %d: result %d, want %d", i, outs[i].Res.NumClasses, i+1)
		}
	}
}

func TestObserveHook(t *testing.T) {
	var reasons []string
	var members []int
	var mu sync.Mutex
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	b := New(context.Background(), Config{
		MaxWait:     time.Hour,
		MaxSize:     2,
		Concurrency: 1,
		Run: func(ctx context.Context, ms []Member, out []MemberResult) {
			parkGate(ctx, ms, started, release)
			echoRun(nil, ms, out)
		},
		Observe: func(reason string, n int, wait time.Duration) {
			mu.Lock()
			reasons = append(reasons, reason)
			members = append(members, n)
			mu.Unlock()
		},
	})
	defer b.Close()

	// The park request drain-flushes alone and holds the slot; the two
	// submissions behind it coalesce into one size flush.
	go b.Submit(context.Background(), tinyInstance(1), "park")
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), tinyInstance(2), ""); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []string{FlushDrain, FlushSize}
	if len(reasons) != 2 || reasons[0] != want[0] || reasons[1] != want[1] ||
		members[0] != 1 || members[1] != 2 {
		t.Errorf("observe saw reasons=%v members=%v, want %v of 1 and 2 members", reasons, members, want)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	b := New(context.Background(), Config{MaxWait: time.Hour, MaxSize: 8, Run: echoRun})
	b.Close()
	if _, err := b.Submit(context.Background(), tinyInstance(2), ""); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after close: err = %v, want ErrShutdown", err)
	}
}

func TestCloseFailsQueued(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	b := New(context.Background(), Config{
		MaxWait:     time.Hour, // queued item can only settle via shutdown
		MaxSize:     1 << 20,
		Concurrency: 1,
		Run: func(ctx context.Context, members []Member, out []MemberResult) {
			parkGate(ctx, members, started, release)
			echoRun(nil, members, out)
		},
	})
	// Park the only flush slot so the next submission stays queued
	// instead of drain-flushing.
	go b.Submit(context.Background(), tinyInstance(1), "park")
	<-started
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), tinyInstance(2), "")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	// Close with the slot still parked: the lifecycle cancel both fails
	// the queued item and unparks the flush goroutine, so Close joins.
	// (Unparking first would free the slot and the freed wakeup would
	// drain-flush the queued item instead of failing it.)
	b.Close()
	_ = release
	select {
	case err := <-errc:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("queued submit settled with %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued submit never settled after Close")
	}
}

func TestLifecycleContextCancel(t *testing.T) {
	lifecycle, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	b := New(lifecycle, Config{
		MaxWait:     time.Hour,
		MaxSize:     1 << 20,
		Concurrency: 1,
		Run: func(ctx context.Context, members []Member, out []MemberResult) {
			parkGate(ctx, members, started, release)
			echoRun(nil, members, out)
		},
	})
	defer b.Close()
	defer close(release) // runs before Close: unpark so Close can join
	go b.Submit(context.Background(), tinyInstance(1), "park")
	<-started
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), tinyInstance(2), "")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("submit settled with %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit never settled after lifecycle cancel")
	}
}

func TestSubmitCtxCancelWhileQueued(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	b := New(context.Background(), Config{
		MaxWait:     time.Hour,
		MaxSize:     1 << 20,
		Concurrency: 1,
		Run: func(ctx context.Context, members []Member, out []MemberResult) {
			parkGate(ctx, members, started, release)
			echoRun(nil, members, out)
		},
	})
	defer b.Close()
	defer close(release) // runs before Close: unpark so Close can join
	go b.Submit(context.Background(), tinyInstance(1), "park")
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, tinyInstance(2), "")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("submit settled with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit never settled after its context was cancelled")
	}
}

// TestConcurrentSubmits hammers the batcher from many goroutines (run
// under -race this is the batcher's data-race coverage) and checks every
// submitter gets its own positional result back.
func TestConcurrentSubmits(t *testing.T) {
	var flushes atomic.Int64
	b := New(context.Background(), Config{
		MaxWait: 200 * time.Microsecond,
		MaxSize: 16,
		Run: func(_ context.Context, members []Member, out []MemberResult) {
			flushes.Add(1)
			echoRun(nil, members, out)
		},
	})
	defer b.Close()

	const clients = 64
	const perClient = 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				n := 1 + (c*perClient+r)%32
				out, err := b.Submit(context.Background(), tinyInstance(n), fmt.Sprintf("%d/%d", c, r))
				if err != nil {
					t.Errorf("client %d req %d: %v", c, r, err)
					return
				}
				if out.Res.NumClasses != n {
					t.Errorf("client %d req %d: got %d, want %d (cross-delivery)", c, r, out.Res.NumClasses, n)
					return
				}
				if out.Coalesced < 1 || out.Coalesced > 16 {
					t.Errorf("client %d req %d: coalesced %d out of [1,16]", c, r, out.Coalesced)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total := int64(clients * perClient)
	if f := flushes.Load(); f <= 0 || f > total {
		t.Fatalf("flushes = %d, want in (0, %d]", f, total)
	} else {
		t.Logf("coalesced %d requests into %d flushes (avg batch %.1f)", total, f, float64(total)/float64(f))
	}
}
