package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sfcp"
	"sfcp/internal/jobs"
	"sfcp/internal/store"
	"sfcp/internal/workload"
)

// solveVia answers one request for ins through route — /solve, a
// one-member /solve/batch, or an async job and its result — in the
// synchronous reply shape.
func solveVia(t *testing.T, ts *httptest.Server, route, algo string, ins sfcp.Instance) SolveResponse {
	t.Helper()
	body := fmt.Sprintf(`{"algorithm":%q,"f":%s,"b":%s}`, algo, toJSON(t, ins.F), toJSON(t, ins.B))
	var data []byte
	switch route {
	case "/jobs":
		snap, resp, sub := submitJSONJob(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job submit: %d %s", resp.StatusCode, sub)
		}
		pollJob(t, ts, snap.ID, jobs.StateDone)
		_, data = get(t, ts.URL+"/jobs/"+snap.ID+"/result")
	case "/solve/batch":
		resp, got := post(t, ts.URL+route, `{"instances":[`+body+`]}`)
		var br BatchResponse
		if err := json.Unmarshal(got, &br); resp.StatusCode != http.StatusOK || err != nil || len(br.Results) != 1 {
			t.Fatalf("batch: %d %s", resp.StatusCode, got)
		}
		return br.Results[0]
	default:
		resp, got := post(t, ts.URL+route, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: %d %s", resp.StatusCode, got)
		}
		data = got
	}
	var r SolveResponse
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return r
}

// TestPipelineParity sends one small instance down every path that solves
// it — /solve, a /solve/batch member and an async job, for auto and
// linear as for explicit non-linear requests, and POST /instances — and
// requires identical labels from all of them. On the solve, batch and job
// paths a miss and a later hit must each report the plan sfcp.PlanWith
// resolves for that very request (never the plan of whichever request
// filled the cache), and the counters must move by exactly one plan per
// request and one solve per miss. Every path takes a slot of the lane its
// plan names; the subtests keep the names they had when small linear
// solves went to a batch crew.
func TestPipelineParity(t *testing.T) {
	wl := workload.RandomFunction(41, 200, 3)
	ins := sfcp.Instance{F: wl.F, B: wl.B}
	want, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
	if err != nil {
		t.Fatal(err)
	}
	small := []sfcp.Algorithm{sfcp.AlgorithmAuto, sfcp.AlgorithmLinear}
	for _, path := range []struct {
		name, route string
		algos       []sfcp.Algorithm
	}{
		{"coalescing on", "/solve", small},
		{"batch member", "/solve/batch", small},
		{"algorithm crew", "/solve", []sfcp.Algorithm{sfcp.AlgorithmMoore, sfcp.AlgorithmHopcroft}},
		{"async job", "/jobs", small},
	} {
		for _, algo := range path.algos {
			t.Run(path.name+"/"+algo.String(), func(t *testing.T) {
				_, ts := newTestServer(t, Config{})
				plan, err := sfcp.PlanWith(ins, sfcp.Options{Algorithm: algo})
				if err != nil {
					t.Fatal(err)
				}
				for i, cached := range []bool{false, true} {
					r := solveVia(t, ts, path.route, algo.String(), ins)
					if !reflect.DeepEqual(r.Labels, want.Labels) {
						t.Errorf("request %d: labels differ from the linear solver's", i)
					}
					if r.Cached != cached {
						t.Errorf("request %d: cached = %v, want %v", i, r.Cached, cached)
					}
					if r.ResolvedAlgorithm != plan.Algorithm.String() || r.PlanReason != plan.Reason {
						t.Errorf("request %d: plan %q (%q), want its own %q (%q)",
							i, r.ResolvedAlgorithm, r.PlanReason, plan.Algorithm, plan.Reason)
					}
					m := fetchMetrics(t, ts)
					for _, line := range []string{
						fmt.Sprintf(`sfcpd_plan_algorithm_total{algorithm=%q} %d`, plan.Algorithm, i+1),
						fmt.Sprintf(`sfcpd_solves_total{algorithm=%q} 1`, plan.Algorithm),
					} {
						if !strings.Contains(m, line+"\n") {
							t.Errorf("after request %d: metrics missing %q", i, line)
						}
					}
				}
			})
		}
	}
	t.Run("instances", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		if ir := createInstance(t, ts.URL, ins); !reflect.DeepEqual(ir.Labels, want.Labels) {
			t.Error("POST /instances labels differ from the linear solver's")
		}
	})
}

// TestInstanceRoutesAfterClose: instance builds and deltas are admitted
// through a slot of the pool's linear lane, so once the server is closed
// they answer 503 like /solve instead of solving on the handler
// goroutine.
func TestInstanceRoutesAfterClose(t *testing.T) {
	s, ts := newTestServer(t, Config{BlobStore: store.NewMemBlobStore()})
	ir := createInstance(t, ts.URL, sfcp.Instance{F: []int{1, 0}, B: []int{0, 1}})
	s.Close()

	for _, tc := range []struct{ route, body string }{
		{"/solve", `{"f":[1,2,0],"b":[0,1,0]}`},
		{"/instances", `{"f":[1,2,0],"b":[0,1,0]}`},
		{"/instances/" + ir.Digest + "/delta", `{"edits":[{"node":0,"b":1}]}`},
	} {
		if resp, data := post(t, ts.URL+tc.route, tc.body); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s after Close: status %d, want 503 (body %s)", tc.route, resp.StatusCode, data)
		}
	}
}

// TestSeededLinearSolveKeepsArena: only the simulators read the seed, so
// a linear request that names its own seed still takes a warm arena from
// the library's pool. A warm execute of a 2^15-node linear plan allocates
// no more with seed 7 than with the server's seed.
func TestSeededLinearSolveKeepsArena(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := New(Config{})
	t.Cleanup(s.Close)
	wl := workload.RandomFunction(3, 1<<15, 3)
	ins := sfcp.Instance{F: wl.F, B: wl.B}
	plan, err := sfcp.PlanWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(seed uint64) float64 {
		return testing.AllocsPerRun(20, func() {
			if out := s.execute(context.Background(), ins, plan, seed); out.err != nil {
				t.Fatal(out.err)
			}
		})
	}
	own, seeded := allocs(s.cfg.Seed), allocs(7)
	if seeded > own {
		t.Errorf("a seed-7 linear solve allocates %.0f times, the server's seed %.0f", seeded, own)
	}
}
