package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/store"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// The server-level tiered-storage contract: the solve path consults the
// blob tier on RAM-cache misses, spilled results write through to it, a
// new server over the same stores serves previous answers without
// re-solving, and the sfcpd_store_* / sfcpd_cache_bytes families report
// it all (as zeros in zero-config mode).

func TestCacheByteBound(t *testing.T) {
	// Labels 0–99 pack at 7 bits each; the budget holds two such entries
	// but not three.
	res := sfcp.Result{Labels: make([]int, 100), NumClasses: 100}
	for i := range res.Labels {
		res.Labels[i] = i
	}
	size := entrySize("a", packLabels(res.Labels))
	budget := 2*size + size/2
	c := newResultCache(100, budget)
	c.Put("a", res)
	c.Put("b", res)
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	c.Put("c", res)
	if c.Len() != 2 {
		t.Fatalf("len %d after byte-bound put, want 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("LRU entry survived byte-bound eviction")
	}
	if got := c.Bytes(); got != 2*size {
		t.Errorf("Bytes() = %d, want %d", got, 2*size)
	}

	// An entry bigger than the whole budget is never admitted — and a
	// stale entry under its key is dropped rather than served forever.
	huge := sfcp.Result{Labels: make([]int, 1000), NumClasses: 1000}
	for i := range huge.Labels {
		huge.Labels[i] = i
	}
	c.Put("b", huge)
	if _, ok := c.Get("b"); ok {
		t.Error("over-budget entry admitted (or stale entry retained)")
	}

	// maxBytes = 0 keeps the original entries-only behavior.
	unbounded := newResultCache(2, 0)
	unbounded.Put("x", huge)
	if _, ok := unbounded.Get("x"); !ok {
		t.Error("unbounded cache rejected an entry")
	}
}

// storeServer builds a server over the given stores with a spill
// threshold of one element (everything persists).
func storeServer(t *testing.T, js store.JobStore, bs store.BlobStore) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		JobStore:  js,
		BlobStore: bs,
		SpillN:    1,
		Logf:      t.Logf,
	})
	ts := httptest.NewServer(s)
	return s, ts
}

func TestBlobTierServesAcrossRestart(t *testing.T) {
	journal := store.NewMemJobStore()
	blobs := store.NewMemBlobStore()
	body := `{"algorithm":"linear","f":[1,2,3,0],"b":[0,0,0,0]}`

	s1, ts1 := storeServer(t, journal, blobs)
	resp, data := post(t, ts1.URL+"/solve", body)
	if resp.StatusCode != 200 {
		t.Fatalf("first solve: %d %s", resp.StatusCode, data)
	}
	var first SolveResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve claims cached")
	}
	if blobs.Len() == 0 {
		t.Fatal("solve above SpillN did not write through to the blob tier")
	}
	ts1.Close()
	s1.Close()

	// A fresh server (empty RAM cache) over the same stores answers from
	// the durable tier without running a solver.
	s2, ts2 := storeServer(t, journal, blobs)
	defer func() { ts2.Close(); s2.Close() }()
	resp, data = post(t, ts2.URL+"/solve", body)
	if resp.StatusCode != 200 {
		t.Fatalf("restart solve: %d %s", resp.StatusCode, data)
	}
	var second SolveResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("restarted server re-solved instead of reading the blob tier")
	}
	if len(second.Labels) != len(first.Labels) {
		t.Fatalf("tier labels %v != original %v", second.Labels, first.Labels)
	}
	for i := range first.Labels {
		if first.Labels[i] != second.Labels[i] {
			t.Fatalf("tier labels %v != original %v", second.Labels, first.Labels)
		}
	}

	_, m := get(t, ts2.URL+"/metrics")
	for _, want := range []string{
		"sfcpd_store_blob_reads_total 1",
		"sfcpd_store_blob_writes_total",
	} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestCorruptBlobFallsBackToSolving(t *testing.T) {
	blobs := store.NewMemBlobStore()
	ins := sfcp.Instance{F: []int{1, 2, 3, 0}, B: []int{0, 0, 0, 0}}
	key := store.ResultKey(sfcp.AlgorithmLinear.String(), 0, ins.Digest())
	if _, err := blobs.Put(key, strings.NewReader("not a labels blob")); err != nil {
		t.Fatal(err)
	}

	s, ts := storeServer(t, store.NewMemJobStore(), blobs)
	defer func() { ts.Close(); s.Close() }()
	resp, data := post(t, ts.URL+"/solve", `{"algorithm":"linear","f":[1,2,3,0],"b":[0,0,0,0]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("solve over corrupt blob: %d %s", resp.StatusCode, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("corrupt blob served as a cached result")
	}
	// The re-solve replaced the corrupt blob with a readable one.
	rc, err := blobs.Get(key)
	if err != nil {
		t.Fatalf("blob not re-persisted after corruption: %v", err)
	}
	labels, err := sfcp.DecodeLabelsBinary(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("re-persisted blob unreadable: %v", err)
	}
	if len(labels) != 4 {
		t.Fatalf("re-persisted labels %v", labels)
	}
}

func TestJobResultAcrossRestart(t *testing.T) {
	journal := store.NewMemJobStore()
	blobs := store.NewMemBlobStore()

	s1, ts1 := storeServer(t, journal, blobs)
	resp, data := post(t, ts1.URL+"/jobs", `{"algorithm":"linear","f":[1,0,3,2],"b":[0,0,0,0]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	first := waitJobLabels(t, ts1, snap.ID)
	ts1.Close()
	s1.Close()

	s2, ts2 := storeServer(t, journal, blobs)
	defer func() { ts2.Close(); s2.Close() }()
	second := waitJobLabels(t, ts2, snap.ID)
	if len(first) != len(second) {
		t.Fatalf("restored job labels %v != original %v", second, first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("restored job labels %v != original %v", second, first)
		}
	}
}

// waitJobLabels polls a job to done and fetches its labels.
func waitJobLabels(t *testing.T, ts *httptest.Server, id string) []int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := get(t, ts.URL+"/jobs/"+id+"/result")
		switch resp.StatusCode {
		case http.StatusOK:
			var out SolveResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			return out.Labels
		case http.StatusConflict:
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("job result: %d %s", resp.StatusCode, data)
		}
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

func TestStoreMetricsZeroConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, data := get(t, ts.URL+"/metrics")
	m := string(data)
	for _, want := range []string{
		"sfcpd_store_blob_reads_total 0",
		"sfcpd_store_blob_writes_total 0",
		"sfcpd_store_spilled_total 0",
		`sfcpd_store_recovered_jobs_total{outcome="requeued"} 0`,
		"sfcpd_store_journal_corrupt_total 0",
		"sfcpd_cache_bytes",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("zero-config metrics missing %q", want)
		}
	}
}

func TestCacheBytesGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: 1 << 20})
	post(t, ts.URL+"/solve", `{"algorithm":"linear","f":[1,2,0],"b":[0,0,0]}`)
	if cacheBytesGauge(t, ts.URL) == 0 {
		t.Fatalf("cache bytes gauge still zero after a cached solve")
	}
}

// TestVersionOutlivesJobPayload: a version POST /instances registered
// stays addressable after a job on the same instance finishes and the
// server restarts. Both persist the instance in one blob tier, and the
// job manager deletes its payload once the last job on it is done, so
// versions are stored under a key of their own.
func TestVersionOutlivesJobPayload(t *testing.T) {
	journal, blobs := store.NewMemJobStore(), store.NewMemBlobStore()
	ins := sfcp.Instance{F: []int{1, 2, 0, 4, 3}, B: []int{0, 1, 0, 1, 1}}

	s1, ts1 := storeServer(t, journal, blobs)
	ir := createInstance(t, ts1.URL, ins)
	resp, data := post(t, ts1.URL+"/jobs", `{"algorithm":"linear","f":[1,2,0,4,3],"b":[0,1,0,1,1]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	waitJobLabels(t, ts1, snap.ID)
	// Close waits for the job's runner, which releases the payload.
	ts1.Close()
	s1.Close()

	s2, ts2 := storeServer(t, journal, blobs)
	defer func() { ts2.Close(); s2.Close() }()
	resp, dr, data := postDeltaJSON(t, ts2.URL, ir.Digest, `{"edits":[{"node":3,"b":0}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta on a registered version after its job finished: status %d (body %s)", resp.StatusCode, data)
	}
	if !dr.SessionRebuilt {
		t.Fatal("expected session_rebuilt after restart")
	}
	edited := sfcp.Instance{F: ins.F, B: []int{0, 1, 0, 0, 1}}
	if want, _ := fullSolveLabels(t, edited); dr.Digest != edited.Digest() || !equalIntsSrv(dr.Labels, want) {
		t.Fatalf("delta diverges from a full solve of the edited instance")
	}
}
