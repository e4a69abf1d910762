package server

import (
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
// it — the batch crew from /solve, a /solve/batch member and an async
// job, an algorithm's lane for explicit non-linear requests, and POST
// /instances — and requires identical labels from all of them. On the
// solve, batch and job paths a miss and a later hit must each report the
// plan sfcp.PlanWith resolves for that very request (never the plan of
// whichever request filled the cache), and the counters must move by
// exactly one plan per request and one solve per miss, on the path the
// plan selects.
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
		batched     int // sfcpd_batcher_coalesced_total after the miss
	}{
		{"coalescing on", "/solve", small, 1},
		{"batch member", "/solve/batch", small, 1},
		{"algorithm crew", "/solve", []sfcp.Algorithm{sfcp.AlgorithmMoore, sfcp.AlgorithmHopcroft}, 0},
		{"async job", "/jobs", small, 1},
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
						fmt.Sprintf(`sfcpd_batcher_coalesced_total %d`, path.batched),
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
