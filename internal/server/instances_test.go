package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/store"
	"sfcp/internal/workload"
)

// postDeltaJSON posts a JSON delta against a digest and decodes the reply.
func postDeltaJSON(t *testing.T, base, digest, body string) (*http.Response, DeltaResponse, []byte) {
	t.Helper()
	resp, data := post(t, base+"/instances/"+digest+"/delta", body)
	var dr DeltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &dr); err != nil {
			t.Fatalf("decoding delta response: %v (body %s)", err, data)
		}
	}
	return resp, dr, data
}

// createInstance registers ins and returns the create response.
func createInstance(t *testing.T, base string, ins sfcp.Instance) InstanceResponse {
	t.Helper()
	body, _ := json.Marshal(InstanceCreateRequest{F: ins.F, B: ins.B})
	resp, data := post(t, base+"/instances", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /instances: status %d (body %s)", resp.StatusCode, data)
	}
	var ir InstanceResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatalf("decoding instance response: %v", err)
	}
	return ir
}

func fullSolveLabels(t *testing.T, ins sfcp.Instance) ([]int, int) {
	t.Helper()
	res, err := sfcp.SolveWith(ins, sfcp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Labels, res.NumClasses
}

func TestInstanceCreateAndDelta(t *testing.T) {
	_, ts := newTestServer(t, Config{BlobStore: store.NewMemBlobStore()})
	w := workload.DistinctCycles(7, 4, 16, 3)
	ins := sfcp.Instance{F: w.F, B: w.B}

	ir := createInstance(t, ts.URL, ins)
	if ir.Digest != ins.Digest() {
		t.Fatalf("digest %s, want %s", ir.Digest, ins.Digest())
	}
	wantLabels, wantClasses := fullSolveLabels(t, ins)
	if ir.NumClasses != wantClasses || !equalIntsSrv(ir.Labels, wantLabels) {
		t.Fatalf("create labels diverge from full solve")
	}

	// Re-registering the same bytes reuses the resident session.
	if ir2 := createInstance(t, ts.URL, ins); !ir2.Reused || ir2.Digest != ir.Digest {
		t.Fatalf("re-registration: reused=%v digest=%s", ir2.Reused, ir2.Digest)
	}

	// A single B-edit delta: the child's labels must match a full solve
	// of the edited instance, byte for byte.
	resp, dr, data := postDeltaJSON(t, ts.URL, ir.Digest, `{"edits":[{"node":0,"b":99}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d (body %s)", resp.StatusCode, data)
	}
	edited := sfcp.Instance{F: append([]int{}, ins.F...), B: append([]int{}, ins.B...)}
	edited.B[0] = 99
	if dr.Digest != edited.Digest() {
		t.Fatalf("child digest %s, want %s", dr.Digest, edited.Digest())
	}
	wantLabels, wantClasses = fullSolveLabels(t, edited)
	if dr.NumClasses != wantClasses || !equalIntsSrv(dr.Labels, wantLabels) {
		t.Fatalf("delta labels diverge from full solve of edited instance")
	}
	if dr.Resolve == nil || dr.Resolve.Mode != sfcp.ResolveModeIncremental {
		t.Fatalf("resolve info = %+v, want incremental mode", dr.Resolve)
	}
	if dr.Resolve.DirtyNodes <= 0 || dr.Resolve.DirtyFrac <= 0 || dr.Resolve.DirtyFrac > 1 {
		t.Fatalf("implausible dirty stats: %+v", dr.Resolve)
	}
	if dr.ParentDigest != ir.Digest {
		t.Fatalf("parent digest %s, want %s", dr.ParentDigest, ir.Digest)
	}

	// The child is itself addressable: chain a second delta off it.
	resp2, dr2, data2 := postDeltaJSON(t, ts.URL, dr.Digest, `{"edits":[{"node":1,"f":0}]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("chained delta: status %d (body %s)", resp2.StatusCode, data2)
	}
	edited.F[1] = 0
	wantLabels, _ = fullSolveLabels(t, edited)
	if dr2.Digest != edited.Digest() || !equalIntsSrv(dr2.Labels, wantLabels) {
		t.Fatalf("chained delta diverges from full solve")
	}
}

func TestInstanceDeltaErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{BlobStore: store.NewMemBlobStore()})
	ir := createInstance(t, ts.URL, sfcp.Instance{F: []int{1, 0}, B: []int{0, 1}})

	cases := []struct {
		name     string
		digest   string
		body     string
		wantCode int
		wantSub  string
	}{
		{"bad digest", "ZZZ", `{"edits":[{"node":0,"b":1}]}`, 400, "invalid instance digest"},
		{"unknown digest", strings.Repeat("ab", 32), `{"edits":[{"node":0,"b":1}]}`, 404, "unknown instance digest"},
		{"empty delta", ir.Digest, `{"edits":[]}`, 400, "empty delta"},
		{"malformed json", ir.Digest, `{"edits":`, 400, "invalid JSON"},
		{"trailing brace", ir.Digest, `{"edits":[{"node":0,"b":1}]}}`, 400, "trailing data"},
		{"empty edit", ir.Digest, `{"edits":[{"node":0}]}`, 400, "sets neither F nor B"},
		{"node out of range", ir.Digest, `{"edits":[{"node":99,"b":1}]}`, 400, "out of range"},
		{"f out of range", ir.Digest, `{"edits":[{"node":0,"f":99}]}`, 400, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _, data := postDeltaJSON(t, ts.URL, tc.digest, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantCode, data)
			}
			if !bytes.Contains(data, []byte(tc.wantSub)) {
				t.Errorf("body %s missing %q", data, tc.wantSub)
			}
		})
	}

	// A rejected delta must leave the parent session usable in place.
	resp, dr, data := postDeltaJSON(t, ts.URL, ir.Digest, `{"edits":[{"node":0,"b":7}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta after rejections: status %d (body %s)", resp.StatusCode, data)
	}
	if dr.SessionRebuilt {
		t.Fatalf("session was lost by a rejected delta (rebuilt from tier)")
	}
}

func TestInstanceDeltaBinaryBody(t *testing.T) {
	_, ts := newTestServer(t, Config{BlobStore: store.NewMemBlobStore()})
	w := workload.CycleFamily(3, 4, 8, 4)
	ins := sfcp.Instance{F: w.F, B: w.B}
	ir := createInstance(t, ts.URL, ins)

	nine := 9
	delta := sfcp.Delta{Edits: []sfcp.Edit{{Node: 2, B: &nine}}}
	var buf bytes.Buffer
	if err := sfcp.EncodeDeltaBinary(&buf, delta); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/instances/"+ir.Digest+"/delta",
		sfcp.DeltaBinaryMediaType, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dr DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary delta: status %d", resp.StatusCode)
	}
	edited := sfcp.Instance{F: append([]int{}, ins.F...), B: append([]int{}, ins.B...)}
	edited.B[2] = 9
	wantLabels, _ := fullSolveLabels(t, edited)
	if dr.Digest != edited.Digest() || !equalIntsSrv(dr.Labels, wantLabels) {
		t.Fatalf("binary delta diverges from full solve of edited instance")
	}

	// A corrupted binary body is rejected, not applied.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(raw)-1] ^= 0xff
	resp2, err := http.Post(ts.URL+"/instances/"+dr.Digest+"/delta",
		sfcp.DeltaBinaryMediaType, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt binary delta: status %d, want 400", resp2.StatusCode)
	}
}

// TestInstanceOmitLabels chains binary-body deltas that ask for no labels,
// as the request benchmark's delta_stream sends them, each off the last
// reply's digest: every reply must leave the labels out, yet carry the
// child's n, class count and digest, each equal to a full solve's of that
// version. The last delta asks for labels, which must equal a full
// solve's.
func TestInstanceOmitLabels(t *testing.T) {
	_, ts := newTestServer(t, Config{BlobStore: store.NewMemBlobStore()})
	w := workload.DistinctCycles(7, 8, 16, 3)
	cur := sfcp.Instance{F: w.F, B: w.B}
	n := len(cur.F)
	digest := createInstance(t, ts.URL, cur).Digest
	rng := rand.New(rand.NewSource(1))
	const chain = 12
	for d := range chain {
		var delta sfcp.Delta
		edits := 1
		if d%4 == 3 {
			edits = 8 // one delta in four carries several edits
		}
		for range edits {
			e := sfcp.Edit{Node: rng.Intn(n)}
			if rng.Intn(2) == 0 {
				e.F = ptr(rng.Intn(n))
				cur.F[e.Node] = *e.F
			} else {
				e.B = ptr(rng.Intn(5))
				cur.B[e.Node] = *e.B
			}
			delta.Edits = append(delta.Edits, e)
		}
		var body bytes.Buffer
		if err := sfcp.EncodeDeltaBinary(&body, delta); err != nil {
			t.Fatal(err)
		}
		url, last := ts.URL+"/instances/"+digest+"/delta", d == chain-1
		if !last {
			url += "?labels=false"
		}
		resp, err := http.Post(url, sfcp.DeltaBinaryMediaType, &body)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d, %v (body %s)", d, resp.StatusCode, err, data)
		}
		if !last && bytes.Contains(data, []byte(`"labels"`)) {
			t.Fatalf("delta %d: labels present despite ?labels=false: %s", d, data)
		}
		var dr DeltaResponse
		if err := json.Unmarshal(data, &dr); err != nil {
			t.Fatal(err)
		}
		wantLabels, wantClasses := fullSolveLabels(t, cur)
		if dr.ParentDigest != digest || dr.Digest != cur.Digest() || dr.N != n || dr.NumClasses != wantClasses {
			t.Fatalf("delta %d: parent %s, digest %s, n %d, %d classes; want %s, %s, %d, %d",
				d, dr.ParentDigest, dr.Digest, dr.N, dr.NumClasses, digest, cur.Digest(), n, wantClasses)
		}
		if last && !slices.Equal(dr.Labels, wantLabels) {
			t.Fatalf("delta %d asked for labels: %v, full solve %v", d, dr.Labels, wantLabels)
		}
		digest = dr.Digest
	}
}

// TestInstanceSessionEvictionRebuild drives more versions than the
// registry holds: an evicted version's digest must still accept deltas by
// rebuilding from the blob tier.
func TestInstanceSessionEvictionRebuild(t *testing.T) {
	_, ts := newTestServer(t, Config{InstanceSessions: 2, BlobStore: store.NewMemBlobStore()})
	w := workload.Broom(5, 60, 8, 4)
	a := sfcp.Instance{F: w.F, B: w.B}
	w2 := workload.Star(6, 40, 3)
	b := sfcp.Instance{F: w2.F, B: w2.B}
	w3 := workload.RandomFunction(8, 50, 3)
	c := sfcp.Instance{F: w3.F, B: w3.B}

	ira := createInstance(t, ts.URL, a)
	createInstance(t, ts.URL, b)
	createInstance(t, ts.URL, c) // evicts a's session (cap 2)

	resp, dr, data := postDeltaJSON(t, ts.URL, ira.Digest, `{"edits":[{"node":3,"b":77}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta on evicted version: status %d (body %s)", resp.StatusCode, data)
	}
	if !dr.SessionRebuilt {
		t.Fatalf("expected session_rebuilt for an evicted version")
	}
	edited := sfcp.Instance{F: append([]int{}, a.F...), B: append([]int{}, a.B...)}
	edited.B[3] = 77
	wantLabels, _ := fullSolveLabels(t, edited)
	if !equalIntsSrv(dr.Labels, wantLabels) {
		t.Fatalf("rebuilt-session delta diverges from full solve")
	}
}

// TestInstanceNoBlobTier pins zero-config behavior: residency-only, with
// a clear 404 once a session is gone.
func TestInstanceNoBlobTier(t *testing.T) {
	_, ts := newTestServer(t, Config{InstanceSessions: 1})
	ira := createInstance(t, ts.URL, sfcp.Instance{F: []int{1, 0}, B: []int{0, 1}})
	createInstance(t, ts.URL, sfcp.Instance{F: []int{0, 0}, B: []int{0, 1}}) // evicts a

	resp, _, data := postDeltaJSON(t, ts.URL, ira.Digest, `{"edits":[{"node":0,"b":1}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (body %s)", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("unknown instance digest")) {
		t.Errorf("body %s missing unknown-digest message", data)
	}
}

// TestInstanceRestartSurvival pins the durability contract: a new Server
// over the same blob store serves deltas against digests the old one
// registered.
func TestInstanceRestartSurvival(t *testing.T) {
	blobs := store.NewMemBlobStore()
	w := workload.DistinctCycles(11, 3, 12, 2)
	ins := sfcp.Instance{F: w.F, B: w.B}

	var parentDigest, childDigest string
	var childIns sfcp.Instance
	{
		_, ts := newTestServer(t, Config{BlobStore: blobs})
		ir := createInstance(t, ts.URL, ins)
		parentDigest = ir.Digest
		resp, dr, data := postDeltaJSON(t, ts.URL, parentDigest, `{"edits":[{"node":0,"b":42}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta: status %d (body %s)", resp.StatusCode, data)
		}
		childDigest = dr.Digest
		childIns = sfcp.Instance{F: append([]int{}, ins.F...), B: append([]int{}, ins.B...)}
		childIns.B[0] = 42
	}

	// "Restart": fresh server, same blob store, empty session registry.
	_, ts := newTestServer(t, Config{BlobStore: blobs})
	resp, dr, data := postDeltaJSON(t, ts.URL, childDigest, `{"edits":[{"node":1,"f":0}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta after restart: status %d (body %s)", resp.StatusCode, data)
	}
	if !dr.SessionRebuilt {
		t.Fatalf("expected session_rebuilt after restart")
	}
	grandchild := sfcp.Instance{F: append([]int{}, childIns.F...), B: append([]int{}, childIns.B...)}
	grandchild.F[1] = 0
	wantLabels, _ := fullSolveLabels(t, grandchild)
	if dr.Digest != grandchild.Digest() || !equalIntsSrv(dr.Labels, wantLabels) {
		t.Fatalf("post-restart delta diverges from full solve")
	}

	// The pre-restart parent stays addressable too.
	resp2, _, data2 := postDeltaJSON(t, ts.URL, parentDigest, `{"edits":[{"node":0,"b":1}]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("parent delta after restart: status %d (body %s)", resp2.StatusCode, data2)
	}
}

// TestInstanceAddressAcrossLeaves: on an instance of more than three
// leaves (a leaf covers 4096 elements), JSON and binary registrations
// share one digest; three chained deltas, each editing F and B in
// different leaves, answer the digests of fresh registrations; and
// registering the last child's content finds its session resident under
// the digest the last delta answered.
func TestInstanceAddressAcrossLeaves(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 3*4096 + 5
	w := workload.RandomFunction(17, n, 3)
	ins := sfcp.Instance{F: w.F, B: w.B}
	edited := sfcp.Instance{F: append([]int{}, ins.F...), B: append([]int{}, ins.B...)}

	ir := createInstance(t, ts.URL, ins)
	var wire bytes.Buffer
	if err := ins.EncodeBinary(&wire); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/instances", sfcp.BinaryMediaType, &wire)
	if err != nil {
		t.Fatal(err)
	}
	var bin InstanceResponse
	err = json.NewDecoder(resp.Body).Decode(&bin)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("binary registration: status %d, %v", resp.StatusCode, err)
	}
	if bin.Digest != ir.Digest || ir.Digest != ins.Digest() || !bin.Reused {
		t.Fatalf("JSON digest %s, binary %s (reused %v), want %s", ir.Digest, bin.Digest, bin.Reused, ins.Digest())
	}

	digest := ir.Digest
	for i, edits := range [][]sfcp.Edit{
		{{Node: 0, B: ptr(9)}, {Node: 4096, F: ptr(1)}},
		{{Node: 8191, B: ptr(7)}, {Node: n - 1, F: ptr(0)}},
		{{Node: 4095, F: ptr(n - 1), B: ptr(3)}, {Node: n - 3, B: ptr(1)}},
	} {
		for _, e := range edits {
			if e.F != nil {
				edited.F[e.Node] = *e.F
			}
			if e.B != nil {
				edited.B[e.Node] = *e.B
			}
		}
		body, _ := json.Marshal(sfcp.Delta{Edits: edits})
		resp, dr, data := postDeltaJSON(t, ts.URL, digest, string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d (body %s)", i, resp.StatusCode, data)
		}
		if dr.ParentDigest != digest || dr.Digest != edited.Digest() {
			t.Fatalf("delta %d: parent %s child %s, want parent %s child %s", i, dr.ParentDigest, dr.Digest, digest, edited.Digest())
		}
		digest = dr.Digest
	}

	last := createInstance(t, ts.URL, edited)
	if !last.Reused || last.Digest != digest {
		t.Fatalf("registering the last child: digest %s reused %v, want %s reused", last.Digest, last.Reused, digest)
	}
	wantLabels, _ := fullSolveLabels(t, edited)
	if !equalIntsSrv(last.Labels, wantLabels) {
		t.Fatal("the resident child's labels diverge from a full solve")
	}
}

func ptr(v int) *int { return &v }

// TestResolveMetrics pins the sfcpd_resolve_total and dirty-fraction
// histogram families.
func TestResolveMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{BlobStore: store.NewMemBlobStore()})
	w := workload.DistinctCycles(13, 4, 8, 2)
	ir := createInstance(t, ts.URL, sfcp.Instance{F: w.F, B: w.B})
	digest := ir.Digest
	for i := 0; i < 3; i++ {
		resp, dr, data := postDeltaJSON(t, ts.URL, digest,
			fmt.Sprintf(`{"edits":[{"node":%d,"b":%d}]}`, i, 50+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta %d: status %d (body %s)", i, resp.StatusCode, data)
		}
		digest = dr.Digest
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`sfcpd_resolve_total{mode="incremental"} 3`,
		`sfcpd_resolve_total{mode="full_fallback"} 0`,
		"# TYPE sfcpd_resolve_dirty_frac histogram",
		`sfcpd_resolve_dirty_frac_bucket{le="+Inf"} 3`,
		"sfcpd_resolve_dirty_frac_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func equalIntsSrv(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parkingBlobs is a blob tier whose Put of a key in release reports the
// key on parked, then waits for that key's channel to close.
type parkingBlobs struct {
	store.BlobStore
	parked  chan string
	release map[string]chan struct{}
}

func (b *parkingBlobs) Put(key string, r io.Reader) (int64, error) {
	if rel, ok := b.release[key]; ok {
		b.parked <- key
		<-rel
	}
	return b.BlobStore.Put(key, r)
}

// TestInstanceBlobWriteHoldsNoSlot: a registration and a delta write
// their version's payload after they give their linear slot back, so with
// one slot per lane a small /solve finishes while either write is parked.
func TestInstanceBlobWriteHoldsNoSlot(t *testing.T) {
	ins := sfcp.Instance{F: []int{1, 2, 0, 4, 5, 3}, B: []int{0, 1, 0, 0, 1, 0}}
	child := sfcp.Instance{F: ins.F, B: slices.Clone(ins.B)}
	child.B[0] = 2
	parent, childDigest := ins.Digest(), child.Digest()
	blobs := &parkingBlobs{
		BlobStore: store.NewMemBlobStore(),
		parked:    make(chan string, 1),
		release: map[string]chan struct{}{
			store.VersionKey(parent):      make(chan struct{}),
			store.VersionKey(childDigest): make(chan struct{}),
		},
	}
	_, ts := newTestServer(t, Config{WorkersPerAlgorithm: 1, BlobStore: blobs})
	unpark := map[string]func(){}
	for key, rel := range blobs.release {
		unpark[key] = sync.OnceFunc(func() { close(rel) })
		// Runs before the server's cleanup, which waits for parked handlers.
		t.Cleanup(unpark[key])
	}

	createBody, _ := json.Marshal(InstanceCreateRequest{F: ins.F, B: ins.B})
	for i, step := range []struct {
		name, route, body, digest string
	}{
		{"registration", "/instances", string(createBody), parent},
		{"delta", "/instances/" + parent + "/delta", `{"edits":[{"node":0,"b":2}]}`, childDigest},
	} {
		versioned := postAsync(ts.URL+step.route, step.body)
		select {
		case <-blobs.parked:
		case r := <-versioned:
			t.Fatalf("%s answered (%d %s %v) without writing its version", step.name, r.code, r.data, r.err)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never wrote its version", step.name)
		}

		// A fresh instance per step, so no cache hit skips the lane.
		small := workload.RandomFunction(int64(9+i), 16, 3)
		solveBody := fmt.Sprintf(`{"f":%s,"b":%s}`, toJSON(t, small.F), toJSON(t, small.B))
		select {
		case r := <-postAsync(ts.URL+"/solve", solveBody):
			if r.err != nil || r.code != http.StatusOK {
				t.Fatalf("small solve beside a parked %s: status %d, error %v", step.name, r.code, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("a small solve waited for the %s's blob write", step.name)
		}

		unpark[store.VersionKey(step.digest)]()
		r := <-versioned
		if r.err != nil || r.code != http.StatusOK || !bytes.Contains(r.data, []byte(`"digest":"`+step.digest+`"`)) {
			t.Fatalf("%s: status %d, error %v, body %s, want digest %s", step.name, r.code, r.err, r.data, step.digest)
		}
	}
}
