package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sfcp"
	"sfcp/internal/jobs"
	"sfcp/internal/pool"
	"sfcp/internal/workload"
)

// TestPlanErrorMetricLabels pins the corrected plan-error accounting: a
// request that fails validation/planning counts under
// sfcpd_plan_errors_total keyed by what was asked for, and never
// fabricates solve-family samples for an algorithm ("auto") that nothing
// ever resolves to — for a request bound for an algorithm's lane (the
// original server.go bug) and one bound for the batch crew alike.
func TestPlanErrorMetricLabels(t *testing.T) {
	for _, tc := range []struct {
		name string
		algo string
	}{
		{"pool path", "moore"},
		{"coalescing path", "auto"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			body := fmt.Sprintf(`{"algorithm":%q,"f":[5],"b":[0]}`, tc.algo) // F out of range
			resp, data := post(t, ts.URL+"/solve", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, data)
			}
			m := fetchMetrics(t, ts)
			if want := fmt.Sprintf(`sfcpd_plan_errors_total{algorithm=%q} 1`, tc.algo); !strings.Contains(m, want) {
				t.Errorf("metrics missing %q:\n%s", want, m)
			}
			for _, stray := range []string{
				fmt.Sprintf(`sfcpd_solves_total{algorithm=%q}`, tc.algo),
				fmt.Sprintf(`sfcpd_solve_errors_total{algorithm=%q}`, tc.algo),
			} {
				if strings.Contains(m, stray) {
					t.Errorf("plan error leaked into solve families: found %q\n%s", stray, m)
				}
			}
		})
	}
}

// TestCacheKeyAllocs pins the hot-path cache key builder: identical bytes
// to the fmt.Sprintf it replaced, at one allocation (the string itself).
func TestCacheKeyAllocs(t *testing.T) {
	digest := sfcp.Instance{F: []int{1, 0}, B: []int{0, 1}}.Digest()
	for _, seed := range []uint64{0, 11, ^uint64(0)} {
		got := cacheKey(sfcp.AlgorithmLinear, seed, digest)
		want := fmt.Sprintf("%s/%d/%s", sfcp.AlgorithmLinear, seed, digest)
		if got != want {
			t.Fatalf("cacheKey(%d) = %q, want %q", seed, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = cacheKey(sfcp.AlgorithmLinear, 1234567890, digest)
	})
	if allocs > 1 {
		t.Errorf("cacheKey allocates %.0f times per call, want <= 1", allocs)
	}
}

// TestCoalescedSolves drives concurrent small auto solves through the
// batch crew and checks the responses' batch metadata, the latency
// split, and the sfcpd_batcher_* families.
func TestCoalescedSolves(t *testing.T) {
	const reqs = 16
	_, ts := newTestServer(t, Config{})

	bodies := make([]string, reqs)
	wants := make([][]int, reqs)
	plans := make([]sfcp.Plan, reqs)
	for i := range bodies {
		wl := workload.RandomFunction(int64(100+i), 64, 3)
		bodies[i] = fmt.Sprintf(`{"f":%s,"b":%s}`, toJSON(t, wl.F), toJSON(t, wl.B))
		labels, err := sfcp.Solve(wl.F, wl.B)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = labels
		if plans[i], err = sfcp.PlanWith(sfcp.Instance{F: wl.F, B: wl.B}, sfcp.Options{}); err != nil {
			t.Fatal(err)
		}
	}

	responses := make([]SolveResponse, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := post(t, ts.URL+"/solve", bodies[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d (body %s)", i, resp.StatusCode, data)
				return
			}
			if err := json.Unmarshal(data, &responses[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	for i, r := range responses {
		if r.Error != "" || r.Cached {
			t.Fatalf("request %d: %+v", i, r)
		}
		if !sfcp.SamePartition(r.Labels, wants[i]) {
			t.Errorf("request %d: coalesced labels disagree with direct solve", i)
		}
		if r.ResolvedAlgorithm != "linear" {
			t.Errorf("request %d resolved to %q, want linear", i, r.ResolvedAlgorithm)
		}
		if r.Coalesced < 1 {
			t.Errorf("request %d: coalesced = %d, want >= 1", i, r.Coalesced)
		}
		if r.FlushReason != pool.FlushSize && r.FlushReason != pool.FlushDrain {
			t.Errorf("request %d: flush_reason %q", i, r.FlushReason)
		}
		if r.PlanReason != plans[i].Reason {
			t.Errorf("request %d: plan_reason %q, want its own plan's %q", i, r.PlanReason, plans[i].Reason)
		}
		if r.QueueMS < 0 || r.SolveMS < 0 {
			t.Errorf("request %d: negative latency split queue=%g solve=%g", i, r.QueueMS, r.SolveMS)
		}
	}

	// Every request went through the batch crew, and every pass was
	// recorded before its responses were delivered — so the totals are
	// exact by the time the responses are all in.
	m := fetchMetrics(t, ts)
	for _, want := range []string{
		fmt.Sprintf("sfcpd_batcher_coalesced_total %d", reqs),
		fmt.Sprintf("sfcpd_batcher_queue_seconds_count %d", reqs),
		fmt.Sprintf(`sfcpd_plan_algorithm_total{algorithm="linear"} %d`, reqs),
		fmt.Sprintf(`sfcpd_solves_total{algorithm="linear"} %d`, reqs),
		`sfcpd_batcher_flushes_total{reason=`,
		"sfcpd_batcher_queue_seconds_sum",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}

	// A repeat of the first request is answered from the shared cache —
	// the coalesced result warmed the same keyspace the pool path uses.
	var again SolveResponse
	_, data := post(t, ts.URL+"/solve", bodies[0])
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Coalesced != 0 {
		t.Errorf("repeat request: cached=%v coalesced=%d, want a cache hit that skipped the queue",
			again.Cached, again.Coalesced)
	}
}

// TestJobPlanWorkersRoundTrip pins the snapshot gap fix: async snapshots
// and results report plan_workers like their synchronous twins.
func TestJobPlanWorkersRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wl := workload.RandomFunction(29, 80, 3)
	body := fmt.Sprintf(`{"f":%s,"b":%s}`, toJSON(t, wl.F), toJSON(t, wl.B))

	var sync SolveResponse
	_, data := post(t, ts.URL+"/solve", body)
	if err := json.Unmarshal(data, &sync); err != nil {
		t.Fatal(err)
	}
	if sync.PlanWorkers < 1 {
		t.Fatalf("synchronous response has no plan_workers: %+v", sync)
	}

	snap, resp, data := submitJSONJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	done := pollJob(t, ts, snap.ID, jobs.StateDone)
	if done.PlanWorkers != sync.PlanWorkers {
		t.Errorf("done snapshot plan_workers = %d, synchronous response says %d", done.PlanWorkers, sync.PlanWorkers)
	}
	respRes, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer respRes.Body.Close()
	var res SolveResponse
	if err := json.NewDecoder(respRes.Body).Decode(&res); err != nil || respRes.StatusCode != 200 {
		t.Fatalf("result: code %d err %v", respRes.StatusCode, err)
	}
	if res.PlanWorkers != sync.PlanWorkers {
		t.Errorf("job result plan_workers = %d, synchronous response says %d", res.PlanWorkers, sync.PlanWorkers)
	}
	// The raw JSON must carry the field too (an int zero would be elided,
	// masking a regression behind omitempty).
	raw, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"plan_workers":`) {
		t.Errorf("snapshot JSON missing plan_workers: %s", raw)
	}
}
