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
	"time"

	"sfcp"
	"sfcp/internal/jobs"
	"sfcp/internal/workload"
)

func submitJSONJob(t *testing.T, ts *httptest.Server, body string) (jobs.Snapshot, *http.Response, []byte) {
	t.Helper()
	resp, data := post(t, ts.URL+"/jobs", body)
	var snap jobs.Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("submit response %s: %v", data, err)
		}
	}
	return snap, resp, data
}

func getJob(t *testing.T, ts *httptest.Server, id string) (jobs.Snapshot, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap jobs.Snapshot
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("status response %s: %v", data, err)
		}
	}
	return snap, resp.StatusCode
}

func pollJob(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snap, code := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("job %s: status code %d while polling", id, code)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s: terminal %s (error %q), want %s", id, snap.State, snap.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Snapshot{}
}

func TestJobLifecycleJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	snap, resp, data := submitJSONJob(t, ts, `{"algorithm":"linear","f":[1,0,0],"b":[0,1,0],"priority":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	if snap.State != jobs.StateQueued || snap.ID == "" || snap.Priority != 3 || snap.N != 3 {
		t.Fatalf("submit snapshot: %+v", snap)
	}
	done := pollJob(t, ts, snap.ID, jobs.StateDone)
	if done.NumClasses == 0 || done.Algorithm != "linear" {
		t.Fatalf("done snapshot: %+v", done)
	}

	// JSON result.
	resp2, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var res SolveResponse
	if err := json.NewDecoder(resp2.Body).Decode(&res); err != nil || resp2.StatusCode != 200 {
		t.Fatalf("result: code %d err %v", resp2.StatusCode, err)
	}
	want, err := sfcp.SolveWith(sfcp.Instance{F: []int{1, 0, 0}, B: []int{0, 1, 0}},
		sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
	if err != nil {
		t.Fatal(err)
	}
	if !sfcp.SamePartition(res.Labels, want.Labels) {
		t.Fatalf("job labels %v disagree with local solve %v", res.Labels, want.Labels)
	}

	// Binary result of the same job.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil)
	req.Header.Set("Accept", sfcp.BinaryMediaType)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); ct != sfcp.BinaryMediaType {
		t.Fatalf("binary result content type %q", ct)
	}
	labels, err := sfcp.DecodeLabelsBinary(resp3.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !sfcp.SamePartition(labels, want.Labels) {
		t.Fatalf("binary labels %v disagree with local solve", labels)
	}

	// The job's solve warmed the shared result cache: the synchronous
	// endpoint answers from cache.
	respSync, dataSync := post(t, ts.URL+"/solve", `{"algorithm":"linear","f":[1,0,0],"b":[0,1,0]}`)
	if respSync.StatusCode != 200 || !strings.Contains(string(dataSync), `"cached":true`) {
		t.Errorf("sync solve after job not cached: %d %s", respSync.StatusCode, dataSync)
	}
}

func TestJobSubmitBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ins := sfcp.Instance(workload.RandomFunction(42, 300, 3))
	var wire bytes.Buffer
	if err := ins.EncodeBinary(&wire); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs?algorithm=hopcroft&priority=7", sfcp.BinaryMediaType,
		bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary submit: %d %s", resp.StatusCode, data)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Priority != 7 || snap.Algorithm != "hopcroft" || snap.N != 300 {
		t.Fatalf("binary submit snapshot: %+v", snap)
	}
	done := pollJob(t, ts, snap.ID, jobs.StateDone)
	want, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
	if err != nil {
		t.Fatal(err)
	}
	if done.NumClasses != want.NumClasses {
		t.Fatalf("num_classes %d, want %d", done.NumClasses, want.NumClasses)
	}
}

func TestJobErrorsAndEdges(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 8})
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantSub  string
	}{
		{"unknown algorithm", `{"algorithm":"quantum","f":[0],"b":[0]}`, 400, "unknown algorithm"},
		{"removed native-parallel", `{"algorithm":"native-parallel","f":[0],"b":[0]}`, 400, "unknown algorithm"},
		{"oversized", fmt.Sprintf(`{"f":[%s0],"b":[%s0]}`,
			strings.Repeat("0,", 8), strings.Repeat("0,", 8)), 400, "exceeds limit 8"},
		{"malformed json", `{"f":[1`, 400, "invalid JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/jobs", tc.body)
			if resp.StatusCode != tc.wantCode || !strings.Contains(string(data), tc.wantSub) {
				t.Errorf("%d %s, want %d containing %q", resp.StatusCode, data, tc.wantCode, tc.wantSub)
			}
		})
	}

	// An invalid instance is accepted at submit and surfaces as a failed job.
	snap, resp, data := submitJSONJob(t, ts, `{"f":[5],"b":[0]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("invalid-instance submit: %d %s", resp.StatusCode, data)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, code := getJob(t, ts, snap.ID)
		if code != 200 {
			t.Fatalf("poll code %d", code)
		}
		if got.State == jobs.StateFailed {
			if !strings.Contains(got.Error, "out of range") {
				t.Fatalf("failed job error %q", got.Error)
			}
			// Its result endpoint reports the conflict with the snapshot.
			r, err := http.Get(ts.URL + "/jobs/" + snap.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusConflict {
				t.Fatalf("result of failed job: %d", r.StatusCode)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never failed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Unknown ids.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/deadbeef"},
		{http.MethodGet, "/jobs/deadbeef/result"},
		{http.MethodDelete, "/jobs/deadbeef"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", probe.method, probe.path, r.StatusCode)
		}
	}
}

func TestJobCancelAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A parallel-pram simulation big enough to still be running when the
	// DELETE lands.
	ins := sfcp.Instance(workload.RandomFunction(3, 40_000, 3))
	body, err := json.Marshal(map[string]any{"algorithm": "parallel-pram", "f": ins.F, "b": ins.B})
	if err != nil {
		t.Fatal(err)
	}
	snap, resp, data := submitJSONJob(t, ts, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	pollJob(t, ts, snap.ID, jobs.StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+snap.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", r.StatusCode)
	}
	cancelled := pollJob(t, ts, snap.ID, jobs.StateCancelled)
	if cancelled.FinishedAt == nil {
		t.Fatalf("cancelled snapshot has no finish time: %+v", cancelled)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	m, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"sfcpd_jobs_submitted_total 1",
		`sfcpd_jobs_finished_total{state="cancelled"} 1`,
		"sfcpd_jobs_queued 0",
		"sfcpd_jobs_running 0",
	} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBatchBinaryDigestMismatchIsPositional uploads three concatenated
// members with the middle one's payload corrupted (framing intact): the
// response must carry per-member errors instead of a 400 for everyone.
func TestBatchBinaryDigestMismatchIsPositional(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	members := []sfcp.Instance{
		sfcp.Instance(workload.Star(1, 20, 2)),
		sfcp.Instance(workload.Star(2, 30, 2)),
		sfcp.Instance(workload.Star(3, 40, 2)),
	}
	var stream bytes.Buffer
	offsets := make([]int, len(members))
	for i, ins := range members {
		offsets[i] = stream.Len()
		if err := ins.EncodeBinary(&stream); err != nil {
			t.Fatal(err)
		}
	}
	wire := bytes.Clone(stream.Bytes())
	// Member 1's first F varint sits right after its 6-byte header and
	// 1-byte n varint; flipping a low bit keeps every varint's width.
	wire[offsets[1]+7] ^= 0x01

	resp, err := http.Post(ts.URL+"/solve/batch?algorithm=linear", sfcp.BinaryMediaType,
		bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 || br.Errors != 1 {
		t.Fatalf("results %d errors %d: %s", len(br.Results), br.Errors, data)
	}
	if !strings.Contains(br.Results[1].Error, "digest mismatch") {
		t.Errorf("member 1 error %q", br.Results[1].Error)
	}
	for _, i := range []int{0, 2} {
		if br.Results[i].Error != "" {
			t.Errorf("member %d failed: %q", i, br.Results[i].Error)
		}
		want, err := sfcp.SolveWith(members[i], sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
		if err != nil {
			t.Fatal(err)
		}
		if !sfcp.SamePartition(br.Results[i].Labels, want.Labels) {
			t.Errorf("member %d labels disagree with local solve", i)
		}
	}
}

// TestJobEveryAlgorithm submits one small job of every algorithm, each
// on its own instance so that none is a cache hit, to a server with one
// slot and one dispatcher per lane. Each job reaches done with Moore's
// labels, and its resolved_algorithm is what its plan names (linear for
// auto), the lane laneOf queued it in.
func TestJobEveryAlgorithm(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkersPerAlgorithm: 1})
	ids := make([]string, len(sfcp.Algorithms()))
	for i, algo := range sfcp.Algorithms() {
		wl := workload.RandomFunction(int64(40+i), 60, 3)
		snap, resp, data := submitJSONJob(t, ts,
			fmt.Sprintf(`{"algorithm":%q,"f":%s,"b":%s}`, algo, toJSON(t, wl.F), toJSON(t, wl.B)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%v: submit: %d %s", algo, resp.StatusCode, data)
		}
		ids[i] = snap.ID
	}
	for i, algo := range sfcp.Algorithms() {
		ins := sfcp.Instance(workload.RandomFunction(int64(40+i), 60, 3))
		plan, err := sfcp.PlanWith(ins, sfcp.Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmMoore})
		if err != nil {
			t.Fatal(err)
		}
		done := pollJob(t, ts, ids[i], jobs.StateDone)
		if done.ResolvedAlgorithm != plan.Algorithm.String() ||
			(algo == sfcp.AlgorithmAuto && done.ResolvedAlgorithm != "linear") {
			t.Errorf("%v job resolved to %q, its plan names %v", algo, done.ResolvedAlgorithm, plan.Algorithm)
		}
		if labels := waitJobLabels(t, ts, ids[i]); !slices.Equal(labels, want.Labels) {
			t.Errorf("%v job labels %v, Moore's %v", algo, labels, want.Labels)
		}
	}
}

// TestJobReportsResolvedAlgorithm: async jobs surface the planner's choice
// in the done snapshot and the JSON result, like the synchronous API.
func TestJobReportsResolvedAlgorithm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wl := workload.RandomFunction(13, 80, 3)
	snap, resp, data := submitJSONJob(t, ts,
		fmt.Sprintf(`{"f":%s,"b":%s}`, toJSON(t, wl.F), toJSON(t, wl.B)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	if snap.ResolvedAlgorithm != "" {
		t.Errorf("queued snapshot already claims a resolved algorithm: %+v", snap)
	}
	done := pollJob(t, ts, snap.ID, jobs.StateDone)
	if done.Algorithm != "auto" || done.ResolvedAlgorithm != "linear" || done.PlanReason == "" {
		t.Fatalf("done snapshot: algorithm=%q resolved=%q reason=%q",
			done.Algorithm, done.ResolvedAlgorithm, done.PlanReason)
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
	if res.Algorithm != "auto" || res.ResolvedAlgorithm != "linear" {
		t.Errorf("result reports algorithm=%q resolved=%q", res.Algorithm, res.ResolvedAlgorithm)
	}
}
