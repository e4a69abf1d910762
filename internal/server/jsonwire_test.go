package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"sfcp"
	"sfcp/internal/workload"
)

// instanceBody is a /solve body shaped as the request benchmark sends
// it: {"f":[...],"b":[...]} with no whitespace.
func instanceBody(ins workload.Instance) []byte {
	b := []byte(`{"f":[`)
	for i, x := range ins.F {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	b = append(b, `],"b":[`...)
	for i, x := range ins.B {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, "]}"...)
}

// checkRequestParity decodes body as T with the scanner, with the
// server's decode path and with the reference, and fails on any
// disagreement. The scanner alone may leave a body to the reference
// (deferred) but must never accept a body the reference rejects, reject
// one it accepts, or decode to a different value.
func checkRequestParity[T jsonRequest](t *testing.T, body []byte) {
	t.Helper()
	var want T
	refErr := decodeStrict(body, &want)

	var scanned T
	switch ok, deferred := scanJSON(body, &scanned); {
	case ok && refErr != nil:
		t.Fatalf("%T %q: scanner accepts, reference rejects: %v", want, body, refErr)
	case ok && !reflect.DeepEqual(scanned, want):
		t.Fatalf("%T %q: scanner decodes %+v, reference %+v", want, body, scanned, want)
	case !ok && !deferred && refErr == nil:
		t.Fatalf("%T %q: scanner rejects, reference accepts %+v", want, body, want)
	}

	var got T
	err := decodeBody(body, &got)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%T %q: decode error %v, reference error %v", want, body, err, refErr)
	case err != nil && err.Error() != refErr.Error():
		t.Fatalf("%T %q: decode error %q, reference error %q", want, body, err, refErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%T %q: decodes %+v, reference %+v", want, body, got, want)
	}
}

// FuzzJSONRequest holds the request codec to encoding/json: for any
// bytes, as each of the four request types, the server's decode and the
// reference (encoding/json with unknown keys and trailing data rejected)
// agree on accept or reject, and on the decoded value. Run longer with:
//
//	go test -fuzz=FuzzJSONRequest -fuzztime 30s ./internal/server
func FuzzJSONRequest(f *testing.F) {
	for _, body := range []string{
		// The endpoint tables' bodies.
		`{"f":[1,0],"b":[0,1]}`,
		`{"algorithm":"linear","f":[0,0,1],"b":[0,0,0]}`,
		`{"algorithm":"parallel-pram","f":[1,2,0],"b":[0,0,0],"seed":3}`,
		`{"f":[1,0`,
		`{"f":[0],"b":[0],"bogus":1}`,
		`{"f":[0],"b":[0]} {}`,
		`{"f":[0],"b":[0]}]`,
		`{"f":[0],"b":[0]}}`,
		`{"algorithm":"quantum","f":[0],"b":[0]}`,
		`{"f":[5],"b":[0]}`,
		`{"f":[0,1],"b":[0]}`,
		`{"algorithm":"linear","instances":[{"f":[0],"b":[0]},{"algorithm":"moore","f":[1,0],"b":[0,0]}]}`,
		`{"instances":[]}`,
		`{"instances":[{"f":[0],"b":[0]},{"algorithm":"quantum","f":[0],"b":[0]}]}`,
		`{"instances":[{"f":[0],"b":[0]}]}]`,
		`[1,2]`,
		`{"f":[1`,
		`{"algorithm":"linear","f":[1,2,0],"b":[0,1,0],"priority":5}`,
		`{"f":[1,2,0,4,5,3],"b":[0,1,0,0,1,0]}`,
		// Forms at the scanner's edges.
		``, ` `, `null`, ` null `, `{}`, `{"f":null,"b":[null,1]}`, `{"instances":[null,{}]}`,
		`{"F":[1],"B":[0],"SEED":7,"Algorithm":"auto","PRIORITY":-2}`,
		`{"f":[1],"f":[null,2]}`, `{"seed":1,"seed":null}`,
		`{"f":[0]}`, "{\"\u017feed\":1}", `{"\u0066":[1]}`, `{"algorithm":"a\"b"}`,
		"{\"algorithm\":\"\x01\"}", "{\"algorithm\":\"\u00e9\xff\"}",
		`{"f":[-0,9223372036854775807,-9223372036854775808],"b":[]}`,
		`{"f":[9223372036854775808]}`, `{"f":[01]}`, `{"f":[1.0]}`, `{"f":[1e2]}`, `{"f":[1,]}`,
		`{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`, `{"seed":-1}`, `{"seed":0}`,
		"\t{ \"f\" : [ 1 , 2 ] ,\n\"b\":[ 0,0 ] }\r\n",
	} {
		f.Add([]byte(body))
	}
	// Benchmark-shaped bodies, kept small so the fuzzer's minimizer stays fast.
	one := instanceBody(workload.RandomFunction(1, 16, 4))
	f.Add(one)
	f.Add(fmt.Appendf(nil, `{"instances":[%s,%s]}`, one, instanceBody(workload.Broom(2, 24, 6, 3))))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequestParity[SolveRequest](t, body)
		checkRequestParity[BatchRequest](t, body)
		checkRequestParity[JobRequest](t, body)
		checkRequestParity[InstanceCreateRequest](t, body)
	})
}

// replyStrings need every kind of escaping encoding/json does.
var replyStrings = []string{
	"", "linear", "auto: n=736 below parallel crossover 32768 [default profile]",
	`<script>&amp;</script>`, `quote " and backslash \`, "\x00\x01\x1f\b\f\n\r\t\x7f",
	"invalid \xff\xfe utf-8 \xc3", "separators \u2028 \u2029", "h\u00e9llo, \u65e5\u672c",
}

// replyFloats cover encoding/json's float formats, and the non-finite
// values on which Encode fails and writes nothing.
var replyFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 0.123456, 1e-6, 9.99e-7, 5e-324, 1e-300,
	1e20, 1e21, -1e21, 1.7976931348623157e308, 123456789.125, math.NaN(), math.Inf(-1),
}

// fillRandom sets every exported field reachable from v to a random
// value, so a field added to a reply type is covered without editing
// the test. Slices and pointers are nil, empty or filled.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(replyStrings[rng.IntN(len(replyStrings))])
	case reflect.Bool:
		v.SetBool(rng.IntN(2) == 0)
	case reflect.Int, reflect.Int64:
		switch rng.IntN(4) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt([]int64{math.MaxInt64, math.MinInt64, -1}[rng.IntN(3)])
		default:
			v.SetInt(rng.Int64N(1<<40) - 1<<20)
		}
	case reflect.Float64:
		if rng.IntN(4) == 0 {
			v.SetFloat(rng.Float64() * 1e3)
		} else {
			v.SetFloat(replyFloats[rng.IntN(len(replyFloats))])
		}
	case reflect.Slice:
		switch n := rng.IntN(5); n {
		case 0:
			v.SetZero()
		default:
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := range n - 1 {
				fillRandom(rng, v.Index(i))
			}
		}
	case reflect.Pointer:
		if rng.IntN(3) == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillRandom(rng, v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillRandom(rng, v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("fillRandom: no case for %s", v.Type()))
	}
}

// checkReplyParity writes v with the reply writer and with writeJSON
// (json.NewEncoder(w).Encode) and fails unless the two agree byte for
// byte, Content-Type included.
func checkReplyParity[T jsonReply](t *testing.T, v *T) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(want, http.StatusOK, *v)
	writeReply(got, http.StatusOK, v)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%T reply differs\n got: %q\nwant: %q", *v, got.Body.Bytes(), want.Body.Bytes())
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Fatalf("Content-Type %q, want %q", g, w)
	}
}

func randomReply[T jsonReply](rng *rand.Rand) *T {
	v := new(T)
	fillRandom(rng, reflect.ValueOf(v).Elem())
	return v
}

// TestJSONReplyParity holds the reply writer to json.NewEncoder(w).Encode
// on random values of all four reply types.
func TestJSONReplyParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		checkReplyParity(t, randomReply[SolveResponse](rng))
		checkReplyParity(t, randomReply[BatchResponse](rng))
		checkReplyParity(t, randomReply[InstanceResponse](rng))
		checkReplyParity(t, randomReply[DeltaResponse](rng))
	}
}

// TestJSONDecodeAllocs pins the scanner's allocations to the arrays it
// returns: decoding a /solve body allocates as often at n=4096 as at n=64.
func TestJSONDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	allocs := func(n int) float64 {
		body := instanceBody(workload.RandomFunction(7, n, 4))
		return testing.AllocsPerRun(50, func() {
			var req SolveRequest
			if err := decodeBody(body, &req); err != nil || len(req.F) != n {
				t.Fatalf("decode: %v (n=%d)", err, len(req.F))
			}
		})
	}
	// The two arrays, and the request value, which escapes to the fallback.
	if small, large := allocs(64), allocs(4096); small != large || large > 3 {
		t.Errorf("decode allocs: %v at n=64, %v at n=4096; want equal and at most 3", small, large)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a test sees
// only the writer's own allocations.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestJSONReplyAllocs pins the reply writer to O(1) allocations once its
// buffer pool is warm: as many at 4096 labels as at 64.
func TestJSONReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w := discardWriter{h: http.Header{}}
	allocs := func(n int) float64 {
		resp := SolveResponse{Algorithm: "auto", ResolvedAlgorithm: "linear", Labels: make([]int, n), NumClasses: n}
		for i := range resp.Labels {
			resp.Labels[i] = i
		}
		writeReply(w, http.StatusOK, &resp)
		return testing.AllocsPerRun(50, func() {
			writeReply(w, http.StatusOK, &resp)
		})
	}
	// One allocation: the Content-Type header value.
	if small, large := allocs(64), allocs(4096); small != large || large > 1 {
		t.Errorf("reply allocs: %v at 64 labels, %v at 4096; want equal and at most 1", small, large)
	}
}

// TestWireBufsDropLargeBuffers pins the pool's size cap: a buffer grown
// by a 2^20-label reply is dropped, not kept for the next request.
func TestWireBufsDropLargeBuffers(t *testing.T) {
	big := make([]byte, 0, maxPooledBuf+1)
	putBuf(&big)
	if b := getBuf(); cap(*b) > maxPooledBuf {
		t.Fatalf("pool returned a %d-byte buffer; the cap is %d", cap(*b), maxPooledBuf)
	}
}

// benchSizes are the small_json workload's mean instance size and the
// server's default MaxN.
var benchSizes = []int{736, 1 << 20}

// BenchmarkJSONDecode decodes a /solve body with the scanner and with
// encoding/json, reporting ns per instance element.
func BenchmarkJSONDecode(b *testing.B) {
	for _, n := range benchSizes {
		body := instanceBody(workload.RandomFunction(3, n, 4))
		decoders := []struct {
			name   string
			decode func(*SolveRequest) error
		}{
			{"scanner", func(r *SolveRequest) error { return decodeBody(body, r) }},
			{"encoding_json", func(r *SolveRequest) error { return decodeStrict(body, r) }},
		}
		for _, d := range decoders {
			b.Run(fmt.Sprintf("n=%d/%s", n, d.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				for b.Loop() {
					var req SolveRequest
					if err := d.decode(&req); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}

// BenchmarkJSONEncode writes a /solve reply with the writer and with
// encoding/json, reporting ns per label.
func BenchmarkJSONEncode(b *testing.B) {
	for _, n := range benchSizes {
		ins := workload.RandomFunction(3, n, 4)
		res, err := sfcp.SolveWith(sfcp.Instance{F: ins.F, B: ins.B}, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
		if err != nil {
			b.Fatal(err)
		}
		resp := SolveResponse{Algorithm: "auto", ResolvedAlgorithm: "linear", PlanReason: res.Plan.Reason,
			Labels: res.Labels, NumClasses: res.NumClasses, ElapsedMS: 1.25, SolveMS: 1.125}
		w := discardWriter{h: http.Header{}}
		writers := []struct {
			name  string
			write func()
		}{
			{"writer", func() { writeReply(w, http.StatusOK, &resp) }},
			{"encoding_json", func() { writeJSON(w, http.StatusOK, resp) }},
		}
		for _, wr := range writers {
			b.Run(fmt.Sprintf("n=%d/%s", n, wr.name), func(b *testing.B) {
				for b.Loop() {
					wr.write()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
