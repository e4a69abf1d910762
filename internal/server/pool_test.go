package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/pool"
	"sfcp/internal/workload"
)

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

// asyncReply is what a postAsync request came back with.
type asyncReply struct {
	code int
	data []byte
	err  error
}

// postAsync posts a JSON body to url on a goroutine of its own and
// delivers the reply on the returned channel.
func postAsync(url, body string) <-chan asyncReply {
	c := make(chan asyncReply, 1)
	go func() {
		var r asyncReply
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err == nil {
			r.code = resp.StatusCode
			r.data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		r.err = err
		c <- r
	}()
	return c
}

// holdSlot takes one slot of algo's lane on s's pool and keeps it until
// the returned release is called, or the test ends (before s closes,
// which waits for the slot).
func holdSlot(t *testing.T, s *Server, algo sfcp.Algorithm) (release func()) {
	t.Helper()
	started := make(chan struct{})
	done := make(chan struct{})
	held := make(chan error, 1)
	go func() {
		held <- s.pool.Run(context.Background(), algo, func() error {
			close(started)
			<-done
			return nil
		})
	}()
	<-started
	release = sync.OnceFunc(func() {
		close(done)
		if err := <-held; err != nil {
			t.Errorf("held slot: %v", err)
		}
	})
	t.Cleanup(release)
	return release
}

// TestSmallSolveWaitsForLinearSlot: a 16-element auto /solve takes a slot
// of the linear lane like any other solve, so with the lane's only slot
// held its handler waits in pool.Run, and once the slot comes free it
// answers with sfcp.Solve's labels.
func TestSmallSolveWaitsForLinearSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkersPerAlgorithm: 1})
	release := holdSlot(t, s, sfcp.AlgorithmLinear)

	wl := workload.RandomFunction(5, 16, 3)
	want, err := sfcp.Solve(wl.F, wl.B)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"f":%s,"b":%s}`, toJSON(t, wl.F), toJSON(t, wl.B))
	reply := postAsync(ts.URL+"/solve", body)
	waitBlocked(t, "pool.(*Pool).Run(", 1)
	select {
	case r := <-reply:
		t.Fatalf("small solve answered (%d %s %v) while the linear lane's only slot was held", r.code, r.data, r.err)
	default:
	}
	release()

	r := <-reply
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("status %d, error %v: %s", r.code, r.err, r.data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(r.data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ResolvedAlgorithm != "linear" || !reflect.DeepEqual(sr.Labels, want) {
		t.Errorf("resolved %q with labels %v, want linear with %v", sr.ResolvedAlgorithm, sr.Labels, want)
	}
}

// TestPoolCloseDoesNotExecuteQueued pins the shutdown contract: close
// documents waiting requests as dropped (their submitters get
// pool.ErrShutdown), so no slot waiter may run once close has begun, and
// submits after close fail at once. Without the closed check after
// winning a slot, the unbiased select would randomly run waiting work
// after close.
func TestPoolCloseDoesNotExecuteQueued(t *testing.T) {
	const queued = 8
	p := pool.New(1)
	ctx := context.Background()

	// Hold the linear lane's single slot, so everything submitted behind
	// it waits.
	started := make(chan struct{})
	release := make(chan struct{})
	go p.Run(ctx, sfcp.AlgorithmLinear, func() error {
		close(started)
		<-release
		return nil
	})
	<-started

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
	waitBlocked(t, "pool.(*Pool).Run(", queued)

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// Close blocks until the held slot comes back, but it fails waiters
	// first, and from then on a solve on an idle lane fails. Wait for that
	// signal before releasing the slot, so every waiter provably observes
	// a closing pool.
	for p.Run(ctx, sfcp.AlgorithmMoore, func() error { return nil }) == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("pool.close never returned")
	}
	wg.Wait()

	if n := executed.Load(); n != 0 {
		t.Errorf("%d queued tasks executed after close; close documents them as dropped", n)
	}
	for i, err := range errs {
		if !errors.Is(err, pool.ErrShutdown) {
			t.Errorf("queued submitter %d got %v, want pool.ErrShutdown", i, err)
		}
	}
	if err := p.Run(ctx, sfcp.AlgorithmMoore, nil); !errors.Is(err, pool.ErrShutdown) {
		t.Errorf("submit after close: %v, want pool.ErrShutdown", err)
	}
}
