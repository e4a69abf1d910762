package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sfcp"
	"sfcp/internal/codec"
	"sfcp/internal/jobs"
	"sfcp/internal/workload"
)

// postAs posts body with the given Content-Type and returns the status
// and the reply.
func postAs(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// binaryBody encodes instances back to back, as a binary batch body holds them.
func binaryBody(t testing.TB, instances ...sfcp.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ins := range instances {
		if err := ins.EncodeBinary(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestBinaryParams: a binary body's algorithm and seed travel in the
// query string. An explicit pair reaches the pipeline (the seed keys the
// cache), an absent pair means auto and the server's seed, and an
// unknown algorithm or a seed that is not a uint64 is refused.
func TestBinaryParams(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 9})
	body := binaryBody(t, sfcp.Instance(workload.RandomFunction(3, 50, 3)))
	solve := func(query string) SolveResponse {
		t.Helper()
		code, data := postAs(t, ts.URL+"/solve"+query, sfcp.BinaryMediaType, body)
		var r SolveResponse
		if err := json.Unmarshal(data, &r); code != http.StatusOK || err != nil {
			t.Fatalf("%s: %d %s", query, code, data)
		}
		return r
	}

	if r := solve("?algorithm=hopcroft&seed=42"); r.Algorithm != "hopcroft" || r.ResolvedAlgorithm != "hopcroft" || r.Cached {
		t.Errorf("explicit: %+v", r)
	}
	if r := solve("?algorithm=hopcroft&seed=42"); !r.Cached {
		t.Error("explicit: a repeat with the same seed missed the cache")
	}
	if r := solve("?algorithm=hopcroft&seed=43"); r.Cached {
		t.Error("explicit: another seed hit the first seed's entry")
	}
	if r := solve(""); r.Algorithm != "auto" || r.ResolvedAlgorithm != "linear" || r.Cached {
		t.Errorf("defaults: %+v", r)
	}
	if r := solve("?algorithm=linear&seed=9"); !r.Cached {
		t.Error("defaults: the request without a seed did not use the server's seed")
	}

	for query, want := range map[string]string{
		"?algorithm=quantum": "unknown algorithm",
		"?seed=-1":           "invalid seed",
		"?seed=abc":          "invalid seed",
	} {
		if code, data := postAs(t, ts.URL+"/solve"+query, sfcp.BinaryMediaType, body); code != http.StatusBadRequest || !bytes.Contains(data, []byte(want)) {
			t.Errorf("%s: %d %s, want 400 %q", query, code, data, want)
		}
	}
}

// bodyFields are the fields a request carries beside its instances, as
// raw text: a JSON body quotes algorithm and writes seed and priority as
// numbers, a binary one sends all three as query parameters.
type bodyFields struct{ algo, seed, priority string }

func (f bodyFields) query() string {
	q := url.Values{}
	for k, v := range map[string]string{"algorithm": f.algo, "seed": f.seed, "priority": f.priority} {
		if v != "" {
			q.Set(k, v)
		}
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// object writes one JSON object with the fields in keys that are set,
// then the members of rest.
func (f bodyFields) object(keys []string, rest string) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, k := range keys {
		switch {
		case k == "algorithm" && f.algo != "":
			fmt.Fprintf(&b, "%q:%q,", k, f.algo)
		case k == "seed" && f.seed != "":
			fmt.Fprintf(&b, "%q:%s,", k, f.seed)
		case k == "priority" && f.priority != "":
			fmt.Fprintf(&b, "%q:%s,", k, f.priority)
		}
	}
	b.WriteString(rest)
	b.WriteByte('}')
	return b.String()
}

// formatBodies renders one request to route as a JSON body and as a
// binary body with its query string. A batch carries every instance as
// a member, with the seed on each, as a binary batch applies its query
// seed; any other route carries the first, and the rest follow it as
// trailing data.
func formatBodies(t *testing.T, route string, f bodyFields, instances ...sfcp.Instance) (jsonBody, binBody []byte, query string) {
	t.Helper()
	member := func(ins sfcp.Instance, keys []string) string {
		return f.object(keys, fmt.Sprintf(`"f":%s,"b":%s`, toJSON(t, ins.F), toJSON(t, ins.B)))
	}
	switch route {
	case "/solve/batch":
		members := make([]string, len(instances))
		for i, ins := range instances {
			members[i] = member(ins, []string{"seed"})
		}
		jsonBody = []byte(f.object([]string{"algorithm"}, `"instances":[`+strings.Join(members, ",")+`]`))
	default:
		keys := map[string][]string{"/solve": solveKeys, "/jobs": jobKeys, "/instances": instanceKeys}[route]
		for _, ins := range instances {
			jsonBody = append(jsonBody, member(ins, keys)...)
		}
	}
	return jsonBody, binaryBody(t, instances...), f.query()
}

// TestBodyFormatParity sends each request as JSON and as binary to every
// route that reads instances. Accepted, the two replies agree on what
// was solved; refused, they agree on the status, for every error both
// formats can express. A JSON batch's algorithm and size limit fail
// member by member (200), while a binary batch is refused whole before
// its members are solved, so the batch route is not in those two rows.
func TestBodyFormatParity(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 64, MaxBatch: 3})
	a := sfcp.Instance(workload.RandomFunction(5, 40, 3))
	b := sfcp.Instance(workload.CycleFamily(6, 3, 8, 2))
	send := func(t *testing.T, route string, f bodyFields, instances ...sfcp.Instance) (jsonCode int, jsonReply []byte, binCode int, binReply []byte) {
		t.Helper()
		jsonBody, binBody, query := formatBodies(t, route, f, instances...)
		jsonCode, jsonReply = postAs(t, ts.URL+route, "application/json", jsonBody)
		binCode, binReply = postAs(t, ts.URL+route+query, sfcp.BinaryMediaType, binBody)
		return jsonCode, jsonReply, binCode, binReply
	}
	decode := func(t *testing.T, code int, data []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(data, v); code/100 != 2 || err != nil {
			t.Fatalf("%d %s", code, data)
		}
	}
	sameSolve := func(t *testing.T, what string, j, b SolveResponse) {
		t.Helper()
		if j.Error != "" || !reflect.DeepEqual(j.Labels, b.Labels) || j.NumClasses != b.NumClasses ||
			j.ResolvedAlgorithm != b.ResolvedAlgorithm || j.PlanReason != b.PlanReason {
			t.Errorf("%s: JSON %+v, binary %+v", what, j, b)
		}
	}

	t.Run("accepted", func(t *testing.T) {
		f := bodyFields{algo: "hopcroft", seed: "5", priority: "4"}
		jc, jr, bc, br := send(t, "/solve", f, a)
		var js, bs SolveResponse
		decode(t, jc, jr, &js)
		decode(t, bc, br, &bs)
		sameSolve(t, "/solve", js, bs)

		jc, jr, bc, br = send(t, "/solve/batch", bodyFields{algo: "linear", seed: "5"}, a, b)
		var jb, bb BatchResponse
		decode(t, jc, jr, &jb)
		decode(t, bc, br, &bb)
		if len(jb.Results) != 2 || len(bb.Results) != 2 {
			t.Fatalf("/solve/batch: %d and %d results", len(jb.Results), len(bb.Results))
		}
		for i := range jb.Results {
			sameSolve(t, fmt.Sprintf("/solve/batch member %d", i), jb.Results[i], bb.Results[i])
		}

		jc, jr, bc, br = send(t, "/jobs", f, b)
		var jj, bj jobs.Snapshot
		decode(t, jc, jr, &jj)
		decode(t, bc, br, &bj)
		if jj.Algorithm != bj.Algorithm || jj.Priority != bj.Priority || jj.N != bj.N || bj.Priority != 4 {
			t.Errorf("/jobs: JSON %+v, binary %+v", jj, bj)
		}

		jc, jr, bc, br = send(t, "/instances", bodyFields{}, a)
		var ji, bi InstanceResponse
		decode(t, jc, jr, &ji)
		decode(t, bc, br, &bi)
		if ji.Digest != bi.Digest || !reflect.DeepEqual(ji.Labels, bi.Labels) || ji.NumClasses != bi.NumClasses {
			t.Errorf("/instances: JSON %+v, binary %+v", ji, bi)
		}
	})

	big := sfcp.Instance(workload.RandomFunction(7, 65, 3))
	for _, tc := range []struct {
		name      string
		routes    []string
		f         bodyFields
		instances []sfcp.Instance
	}{
		{"unknown algorithm", []string{"/solve", "/jobs"}, bodyFields{algo: "quantum"}, []sfcp.Instance{a}},
		{"malformed seed", []string{"/solve", "/solve/batch", "/jobs"}, bodyFields{seed: "-1"}, []sfcp.Instance{a}},
		{"instance over max-n", []string{"/solve", "/jobs", "/instances"}, bodyFields{}, []sfcp.Instance{big}},
		{"data after a single instance", []string{"/solve", "/jobs", "/instances"}, bodyFields{}, []sfcp.Instance{a, b}},
		{"empty batch", []string{"/solve/batch"}, bodyFields{}, nil},
		{"batch over max-batch", []string{"/solve/batch"}, bodyFields{}, []sfcp.Instance{a, b, a, b}},
	} {
		for _, route := range tc.routes {
			t.Run(tc.name+route, func(t *testing.T) {
				jc, jr, bc, br := send(t, route, tc.f, tc.instances...)
				if jc != bc || jc/100 != 4 {
					t.Errorf("JSON %d %s, binary %d %s", jc, jr, bc, br)
				}
			})
		}
	}
}

// TestBinaryHeaderAllocs sends bodies that hold nothing but a header
// declaring 2^20 elements (the default -max-n) to every route that reads
// binary bodies. The body's own length bounds what its header may
// declare, so each is refused with 400 before the decoder allocates
// arrays for elements that never arrive.
func TestBinaryHeaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s := New(Config{})
	t.Cleanup(s.Close)
	// header is a stream header declaring 2^20 elements: flags 0 opens
	// an instance, 2 a delta.
	header := func(flags byte) []byte {
		return []byte{'S', 'F', 'C', 'P', codec.Version, flags, 0x80, 0x80, 0x40}
	}
	for _, tc := range []struct {
		route, contentType string
		body               []byte
		want               string
	}{
		{"/solve", sfcp.BinaryMediaType, header(0), "instance of 1048576 elements exceeds limit 4"},
		{"/solve/batch", sfcp.BinaryMediaType, header(0), "instance 0: codec: instance of 1048576 elements exceeds limit 4"},
		{"/jobs", sfcp.BinaryMediaType, header(0), "instance of 1048576 elements exceeds limit 4"},
		{"/instances", sfcp.BinaryMediaType, header(0), "instance of 1048576 elements exceeds limit 4"},
		{"/instances/" + strings.Repeat("ab", 32) + "/delta", sfcp.DeltaBinaryMediaType, header(2), "instance of 1048576 elements exceeds limit 4"},
	} {
		t.Run(tc.route, func(t *testing.T) {
			serve := func() string {
				t.Helper()
				r := httptest.NewRequest(http.MethodPost, tc.route, bytes.NewReader(tc.body))
				r.Header.Set("Content-Type", tc.contentType)
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				if w.Code != http.StatusBadRequest {
					t.Fatalf("%d %s, want 400", w.Code, w.Body)
				}
				return w.Body.String()
			}
			if got := serve(); !strings.Contains(got, tc.want) {
				t.Errorf("reply %s, want %q", got, tc.want)
			}
			const requests = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range requests {
				serve()
			}
			runtime.ReadMemStats(&after)
			per := float64(after.TotalAlloc-before.TotalAlloc) / requests / (1 << 20)
			t.Logf("a %d-byte body allocates %.2f MiB per request", len(tc.body), per)
			if per >= 1 {
				t.Errorf("a %d-byte body allocates %.1f MiB per request, want under 1 MiB", len(tc.body), per)
			}
		})
	}
}

// The limits FuzzBinaryRequest's reader runs under.
const fuzzMaxN, fuzzMaxBatch = 16, 3

// codecStream decodes body as a stream of concatenated instances with
// the codec alone, at most maxN elements each. failed marks the members
// that failed only their trailer check, and framed reports whether the
// whole stream framed.
func codecStream(body []byte, maxN int) (members []sfcp.Instance, failed []bool, framed bool) {
	dec := codec.NewReader(bytes.NewReader(body))
	dec.MaxN = maxN
	for {
		f, b, err := dec.Decode()
		switch {
		case err == io.EOF:
			return members, failed, true
		case err != nil && !errors.Is(err, codec.ErrDigestMismatch):
			return nil, nil, false
		}
		members = append(members, sfcp.Instance{F: f, B: b})
		failed = append(failed, err != nil)
	}
}

// readAs runs body through readBody as a T under contentType and query.
func readAs[T jsonRequest](s *Server, contentType, query string, body []byte) (T, error) {
	r := httptest.NewRequest(http.MethodPost, "/"+query, bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	var req T
	err := readBody(s, httptest.NewRecorder(), r, &req)
	return req, err
}

// checkBinaryRead reads body as a binary T and holds the outcome to the
// codec: accepted exactly when the codec frames it within the limits,
// with failed marking the batch members that must carry their trailer
// error, and then equal to what render's JSON reads as.
func checkBinaryRead[T jsonRequest](t *testing.T, s *Server, query string, body []byte, accept bool, failed []bool, render map[string]any) {
	t.Helper()
	got, err := readAs[T](s, sfcp.BinaryMediaType, query, body)
	if (err == nil) != accept {
		t.Fatalf("%T %x: reader error %v, codec accepts: %v", got, body, err, accept)
	}
	if err != nil {
		return
	}
	if batch, ok := any(&got).(*BatchRequest); ok {
		for i := range batch.Instances {
			if (batch.Instances[i].decodeErr != nil) != failed[i] {
				t.Fatalf("batch %x: member %d error %v, codec trailer failed: %v", body, i, batch.Instances[i].decodeErr, failed[i])
			}
			batch.Instances[i].decodeErr = nil
		}
	}
	jsonBody, err := json.Marshal(render)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAs[T](s, "application/json", "", jsonBody)
	if err != nil {
		t.Fatalf("%T: JSON rendering %s refused: %v", got, jsonBody, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T %x: binary reads %+v, its JSON rendering %s reads %+v", got, body, got, jsonBody, want)
	}
}

// FuzzBinaryRequest holds readBody's binary half to the codec: for any
// bytes sent as a binary body of each request type, the reader does not
// panic, and within -max-n and -max-batch it accepts exactly what the
// codec accepts — one instance with nothing after it for a single route,
// a stream for a batch, each member that fails only its trailer check
// failing alone. An accepted body reads as the same typed request as its
// JSON rendering with the same query fields. Run longer with:
//
//	go test -run '^$' -fuzz=FuzzBinaryRequest -fuzztime 30s ./internal/server
func FuzzBinaryRequest(f *testing.F) {
	one := binaryBody(f, sfcp.Instance(workload.RandomFunction(1, 12, 3)))
	batch := binaryBody(f, sfcp.Instance(workload.Star(2, 9, 2)), sfcp.Instance{F: []int{0}, B: []int{7}}, sfcp.Instance{})
	corrupt := bytes.Clone(batch)
	corrupt[len(binaryBody(f, sfcp.Instance(workload.Star(2, 9, 2))))-1] ^= 0x10 // the first member's trailer
	for _, body := range [][]byte{
		one, batch, corrupt, append(bytes.Clone(batch), one...),
		binaryBody(f, sfcp.Instance(workload.RandomFunction(4, fuzzMaxN+1, 2))),
		{'S', 'F', 'C', 'P', codec.Version, 0, 0x80, 0x80, 0x40},                                                            // a header declaring 2^20 elements
		append([]byte{'S', 'F', 'C', 'P', codec.Version, 0, fuzzMaxN + 1}, make([]byte, 2*fuzzMaxN+2+codec.TrailerSize)...), // over -max-n, trailer wrong
		{'S', 'F', 'C', 'P', codec.Version, 0, 0},
		nil, []byte("SFCP"), []byte("not binary"),
	} {
		f.Add(body, uint64(7), 3)
	}
	s := &Server{cfg: Config{MaxN: fuzzMaxN, MaxBatch: fuzzMaxBatch}.withDefaults(), metrics: newMetrics()}
	f.Fuzz(func(t *testing.T, body []byte, seed uint64, priority int) {
		const algo = "hopcroft"
		query := fmt.Sprintf("?algorithm=%s&seed=%d&priority=%d", algo, seed, priority)
		members, failed, framed := codecStream(body, fuzzMaxN)
		single := framed && len(members) == 1 && !failed[0]
		var f0, b0 []int
		if len(members) > 0 {
			f0, b0 = members[0].F, members[0].B
		}
		checkBinaryRead[SolveRequest](t, s, query, body, single, nil,
			map[string]any{"algorithm": algo, "seed": seed, "f": f0, "b": b0})
		checkBinaryRead[JobRequest](t, s, query, body, single, nil,
			map[string]any{"algorithm": algo, "seed": seed, "priority": priority, "f": f0, "b": b0})
		checkBinaryRead[InstanceCreateRequest](t, s, query, body, single, nil,
			map[string]any{"f": f0, "b": b0})
		var rendered []map[string]any
		for _, m := range members {
			rendered = append(rendered, map[string]any{"seed": seed, "f": m.F, "b": m.B})
		}
		checkBinaryRead[BatchRequest](t, s, query, body, framed && len(members) <= fuzzMaxBatch, failed,
			map[string]any{"algorithm": algo, "instances": rendered})
	})
}
