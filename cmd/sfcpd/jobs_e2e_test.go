package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/codec"
	"sfcp/internal/jobs"
	"sfcp/internal/workload"
)

func jobSnapshot(t *testing.T, ts *httptest.Server, id string) jobs.Snapshot {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s status: %d %s", id, resp.StatusCode, data)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func pollUntil(t *testing.T, ts *httptest.Server, id string, want jobs.State, timeout time.Duration) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snap := jobSnapshot(t, ts, id)
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s: terminal %s (error %q), want %s", id, snap.State, snap.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, snap.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestE2EJobsHugeBinary is the async half of the scale acceptance test: a
// 10^7-element instance is submitted as a job via the binary ingest path,
// polled to done, and its labels fetched back as a binary stream — the
// HTTP connections involved each last milliseconds even though the solve
// runs for a minute-class duration.
func TestE2EJobsHugeBinary(t *testing.T) {
	n := 10_000_000
	// Pinned for the deterministic workload at full scale (cross-checked by
	// linear and hopcroft in TestE2EHugeBinary).
	wantClasses := 8529291
	if raceEnabled || testing.Short() {
		n = 200_000
	}
	ts := newDaemon(t, "-max-n", fmt.Sprint(32<<20), "-max-body", fmt.Sprint(256<<20))
	ins := sfcp.Instance(workload.RandomFunction(99, n, 4))
	if n != 10_000_000 {
		want, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
		if err != nil {
			t.Fatal(err)
		}
		wantClasses = want.NumClasses
	}

	var buf bytes.Buffer
	buf.Grow(codec.EncodedSize(ins.F, ins.B))
	if err := ins.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs?algorithm=linear", sfcp.BinaryMediaType,
		bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.N != n {
		t.Fatalf("submitted n = %d, want %d", snap.N, n)
	}

	done := pollUntil(t, ts, snap.ID, jobs.StateDone, 5*time.Minute)
	if done.NumClasses != wantClasses {
		t.Fatalf("num_classes = %d, want %d", done.NumClasses, wantClasses)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result", nil)
	req.Header.Set("Accept", sfcp.BinaryMediaType)
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || rresp.Header.Get("Content-Type") != sfcp.BinaryMediaType {
		t.Fatalf("result: %d %q", rresp.StatusCode, rresp.Header.Get("Content-Type"))
	}
	labels, err := sfcp.DecodeLabelsBinary(rresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != n {
		t.Fatalf("decoded %d labels, want %d", len(labels), n)
	}
	if got := sfcp.NumClasses(labels); got != wantClasses {
		t.Fatalf("labels carry %d classes, want %d", got, wantClasses)
	}
}

// TestE2EJobCancelRunningPRAM submits a parallel-pram simulation sized to
// run for many seconds, cancels it mid-flight, and checks the job reaches
// cancelled within one scheduler beat (the solver's cooperative check plus
// dispatcher finalization), not after the solve would have finished.
func TestE2EJobCancelRunningPRAM(t *testing.T) {
	n := 150_000
	if raceEnabled || testing.Short() {
		n = 50_000
	}
	ts := newDaemon(t)
	ins := sfcp.Instance(workload.RandomFunction(7, n, 3))
	body, err := json.Marshal(map[string]any{"algorithm": "parallel-pram", "f": ins.F, "b": ins.B})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, ts, snap.ID, jobs.StateRunning, time.Minute)

	cancelAt := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+snap.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	cancelled := pollUntil(t, ts, snap.ID, jobs.StateCancelled, 30*time.Second)
	latency := time.Since(cancelAt)
	t.Logf("n=%d cancelled after %v (state %s)", n, latency, cancelled.State)
	// The cooperative check fires at the next simulated PRAM step — far
	// sooner than the full solve (tens of seconds at this size). A bound of
	// a few seconds proves the solve aborted rather than drained.
	if latency > 5*time.Second {
		t.Fatalf("cancellation took %v, want within one scheduler beat", latency)
	}
	if cancelled.NumClasses != 0 {
		t.Fatalf("cancelled job leaked a result: %+v", cancelled)
	}
}
