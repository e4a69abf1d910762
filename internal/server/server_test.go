package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"sfcp"
	"sfcp/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestSolveEndpointTable(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 64, MaxBatch: 4})
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantSub  string // substring of the response body
	}{
		{"good auto", `{"f":[1,0],"b":[0,1]}`, 200, `"num_classes":2`},
		{"good linear", `{"algorithm":"linear","f":[0,0,1],"b":[0,0,0]}`, 200, `"labels"`},
		{"good pram with stats", `{"algorithm":"parallel-pram","f":[1,2,0],"b":[0,0,0],"seed":3}`, 200, `"stats"`},
		{"malformed json", `{"f":[1,0`, 400, "invalid JSON"},
		{"unknown field", `{"f":[0],"b":[0],"bogus":1}`, 400, "invalid JSON"},
		{"trailing data", `{"f":[0],"b":[0]} {}`, 400, "trailing data"},
		{"trailing bracket", `{"f":[0],"b":[0]}]`, 400, "trailing data"},
		{"trailing brace", `{"f":[0],"b":[0]}}`, 400, "trailing data"},
		{"unknown algorithm", `{"algorithm":"quantum","f":[0],"b":[0]}`, 400, "unknown algorithm"},
		{"removed native-parallel", `{"algorithm":"native-parallel","f":[0],"b":[0]}`, 400, "unknown algorithm"},
		{"f out of range", `{"f":[5],"b":[0]}`, 400, "out of range"},
		{"length mismatch", `{"f":[0,1],"b":[0]}`, 400, "|F| = 2 but |B| = 1"},
		{"oversized instance", fmt.Sprintf(`{"f":[%s0],"b":[%s0]}`,
			strings.Repeat("0,", 64), strings.Repeat("0,", 64)), 400, "exceeds limit 64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/solve", tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantCode, data)
			}
			if !bytes.Contains(data, []byte(tc.wantSub)) {
				t.Errorf("body %s missing %q", data, tc.wantSub)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d, want 405", resp.StatusCode)
	}
}

// TestWideLabelParallelPRAM: a label of 2^31, which Validate accepts, once
// panicked the PRAM pair coder inside a simulator worker goroutine, where
// no recover could catch it, and took the daemon down. The request must
// answer 200 with the linear solver's labels, and the server keep serving.
func TestWideLabelParallelPRAM(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	labels := func(algo string) []int {
		t.Helper()
		resp, data := post(t, ts.URL+"/solve", `{"algorithm":"`+algo+`","f":[1,2,0,0],"b":[0,2147483648,1,0]}`)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d (body %s)", algo, resp.StatusCode, data)
		}
		var out struct {
			Labels []int `json:"labels"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s: %v (body %s)", algo, err, data)
		}
		return out.Labels
	}
	got := labels("parallel-pram")
	if want := labels("linear"); len(want) != 4 || !slices.Equal(got, want) {
		t.Errorf("parallel-pram labels %v, linear %v", got, want)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	body := fmt.Sprintf(`{"f":[%s0],"b":[%s0]}`,
		strings.Repeat("0,", 50), strings.Repeat("0,", 50))
	resp, data := post(t, ts.URL+"/solve", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, data)
	}
	// Within the limit still works.
	resp, _ = post(t, ts.URL+"/solve", `{"f":[0],"b":[0]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("small body rejected: %d", resp.StatusCode)
	}
}

func TestBatchEndpointTable(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 3})
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantSub  string
	}{
		{"good mixed", `{"algorithm":"linear","instances":[{"f":[0],"b":[0]},{"algorithm":"moore","f":[1,0],"b":[0,0]}]}`,
			200, `"errors":0`},
		{"empty batch", `{"instances":[]}`, 400, "empty batch"},
		{"oversized batch", `{"instances":[{"f":[0],"b":[0]},{"f":[0],"b":[0]},{"f":[0],"b":[0]},{"f":[0],"b":[0]}]}`,
			400, "exceeds limit 3"},
		{"partial failure", `{"instances":[{"f":[0],"b":[0]},{"algorithm":"quantum","f":[0],"b":[0]}]}`,
			200, `"errors":1`},
		// An invalid member fails alone at resolve; its siblings solve.
		{"f out of range", `{"instances":[{"f":[1,0],"b":[0,1]},{"f":[5],"b":[0]},{"f":[0],"b":[0]}]}`,
			200, `"errors":1`},
		{"malformed json", `[1,2]`, 400, "invalid JSON"},
		{"trailing bracket", `{"instances":[{"f":[0],"b":[0]}]}]`, 400, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/solve/batch", tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantCode, data)
			}
			if !bytes.Contains(data, []byte(tc.wantSub)) {
				t.Errorf("body %s missing %q", data, tc.wantSub)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	data, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(data, []byte(`"ok"`)) {
		t.Errorf("body %s", data)
	}
}

func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCacheHitPathAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"algorithm":"hopcroft","f":[1,2,0],"b":[0,1,0]}`

	var first, second SolveResponse
	_, data := post(t, ts.URL+"/solve", body)
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	_, data = post(t, ts.URL+"/solve", body)
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first solve reported cached")
	}
	if !second.Cached {
		t.Error("second identical solve not served from cache")
	}
	if !sfcp.SamePartition(first.Labels, second.Labels) {
		t.Error("cached labels differ")
	}
	// A different seed must not hit the (algorithm, seed, digest) key.
	_, data = post(t, ts.URL+"/solve", `{"algorithm":"hopcroft","f":[1,2,0],"b":[0,1,0],"seed":9}`)
	var third SolveResponse
	if err := json.Unmarshal(data, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("different seed served from cache")
	}

	m := fetchMetrics(t, ts)
	for _, want := range []string{
		"sfcpd_cache_hits_total 1",
		"sfcpd_cache_misses_total 2",
		`sfcpd_requests_total{route="solve"} 3`,
		`sfcpd_solves_total{algorithm="hopcroft"} 2`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2, 0)
	c.Put("a", sfcp.Result{NumClasses: 1})
	c.Put("b", sfcp.Result{NumClasses: 2})
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", sfcp.Result{NumClasses: 3})
	if _, ok := c.Get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite refresh")
	}
	if c.Len() != 2 {
		t.Errorf("len %d", c.Len())
	}
	disabled := newResultCache(-1, 0)
	disabled.Put("x", sfcp.Result{})
	if _, ok := disabled.Get("x"); ok {
		t.Error("disabled cache stored a result")
	}
}

// TestMixedWorkloadBatch is the acceptance smoke test: a /solve/batch load
// spanning every algorithm over internal/workload families, its members
// sharing one slot per lane, with every label vector checked against
// AlgorithmLinear, and a repeated instance observable as a cache hit in
// /metrics.
func TestMixedWorkloadBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkersPerAlgorithm: 1, Workers: 2})

	families := []workload.Instance{
		workload.RandomFunction(11, 120, 3),
		workload.RandomPermutation(12, 90, 2),
		workload.CycleFamily(13, 3, 20, 4),
		workload.DistinctCycles(14, 4, 10, 2),
		workload.Broom(15, 100, 10, 3),
		workload.Star(16, 60, 2),
		workload.UnaryDFA(17, 80, 300),
	}
	var req BatchRequest
	for i, algo := range sfcp.Algorithms() {
		ins := families[i%len(families)]
		req.Instances = append(req.Instances, SolveRequest{
			Algorithm: algo.String(), F: ins.F, B: ins.B,
		})
	}
	// Repeat the first member verbatim: it must come back as a cache hit.
	req.Instances = append(req.Instances, req.Instances[0])

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, ts.URL+"/solve/batch", string(body))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Errors != 0 {
		t.Fatalf("batch errors: %s", data)
	}
	if len(br.Results) != len(req.Instances) {
		t.Fatalf("got %d results, want %d", len(br.Results), len(req.Instances))
	}
	for i, r := range br.Results {
		want, err := sfcp.SolveWith(
			sfcp.Instance{F: req.Instances[i].F, B: req.Instances[i].B},
			sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
		if err != nil {
			t.Fatal(err)
		}
		if !sfcp.SamePartition(r.Labels, want.Labels) {
			t.Errorf("member %d (%s): labels disagree with linear reference", i, r.Algorithm)
		}
	}
	// The duplicated member hit the cache — either within the batch (it
	// raced its twin and lost, then found the stored result) or not; re-ask
	// it alone to force a deterministic hit, then check /metrics.
	_, data = post(t, ts.URL+"/solve", fmt.Sprintf(`{"algorithm":%q,"f":%s,"b":%s}`,
		req.Instances[0].Algorithm, toJSON(t, req.Instances[0].F), toJSON(t, req.Instances[0].B)))
	var single SolveResponse
	if err := json.Unmarshal(data, &single); err != nil {
		t.Fatal(err)
	}
	if !single.Cached {
		t.Error("repeated instance not served from cache")
	}
	m := fetchMetrics(t, ts)
	if strings.Contains(m, "sfcpd_cache_hits_total 0\n") {
		t.Errorf("no cache hit recorded in metrics:\n%s", m)
	}
}

func TestIsBinary(t *testing.T) {
	cases := []struct {
		contentType string
		want        bool
	}{
		{"application/x-sfcp", true},
		{"application/x-sfcp; charset=binary", true},
		{"application/json", false},
		{"", false},
		{"garbage;;;", false},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, "/solve", nil)
		if tc.contentType != "" {
			r.Header.Set("Content-Type", tc.contentType)
		}
		if got := isBinary(r); got != tc.want {
			t.Errorf("isBinary(%q) = %v, want %v", tc.contentType, got, tc.want)
		}
	}
}

func TestBinaryParams(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/solve?algorithm=hopcroft&seed=42", nil)
	algo, seed, err := binaryParams(r)
	if err != nil || algo != sfcp.AlgorithmHopcroft || seed == nil || *seed != 42 {
		t.Errorf("got algo=%v seed=%v err=%v", algo, seed, err)
	}
	r = httptest.NewRequest(http.MethodPost, "/solve", nil)
	algo, seed, err = binaryParams(r)
	if err != nil || algo != sfcp.AlgorithmAuto || seed != nil {
		t.Errorf("defaults: got algo=%v seed=%v err=%v", algo, seed, err)
	}
	for _, bad := range []string{"/solve?algorithm=quantum", "/solve?seed=-1", "/solve?seed=abc"} {
		if _, _, err := binaryParams(httptest.NewRequest(http.MethodPost, bad, nil)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func toJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResolvedAlgorithmSharedCache: an "auto" request and an explicit
// request for the planner's choice are one cache entry — keyed by the
// resolved algorithm — and both report what actually ran.
func TestResolvedAlgorithmSharedCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wl := workload.RandomFunction(9, 100, 3)
	body := fmt.Sprintf(`{"f":%s,"b":%s}`, toJSON(t, wl.F), toJSON(t, wl.B))

	var auto SolveResponse
	_, data := post(t, ts.URL+"/solve", body)
	if err := json.Unmarshal(data, &auto); err != nil {
		t.Fatal(err)
	}
	if auto.Error != "" || auto.Cached {
		t.Fatalf("auto solve: %+v", auto)
	}
	if auto.Algorithm != "auto" || auto.ResolvedAlgorithm == "" || auto.ResolvedAlgorithm == "auto" {
		t.Fatalf("auto request did not report a concrete resolved algorithm: %+v", auto)
	}
	if auto.PlanReason == "" {
		t.Errorf("auto response missing plan_reason: %+v", auto)
	}
	// Auto resolves to linear at every size, so the resolution is
	// deterministic.
	if auto.ResolvedAlgorithm != "linear" {
		t.Fatalf("small-instance auto resolved to %q, want linear", auto.ResolvedAlgorithm)
	}

	// The explicit twin of the resolved algorithm must hit the same entry.
	explicit := fmt.Sprintf(`{"algorithm":%q,"f":%s,"b":%s}`, auto.ResolvedAlgorithm, toJSON(t, wl.F), toJSON(t, wl.B))
	var hit SolveResponse
	_, data = post(t, ts.URL+"/solve", explicit)
	if err := json.Unmarshal(data, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Errorf("explicit %s request after auto was not a cache hit: %+v", auto.ResolvedAlgorithm, hit)
	}
	if hit.ResolvedAlgorithm != auto.ResolvedAlgorithm {
		t.Errorf("explicit request resolved to %q, auto resolved to %q", hit.ResolvedAlgorithm, auto.ResolvedAlgorithm)
	}
	if !sfcp.SamePartition(hit.Labels, auto.Labels) {
		t.Error("cached labels differ between auto and explicit requests")
	}

	m := fetchMetrics(t, ts)
	for _, want := range []string{
		`sfcpd_plan_algorithm_total{algorithm="linear"} 2`,
		"sfcpd_cache_hits_total 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}
