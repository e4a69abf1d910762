package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sfcp"
	"sfcp/internal/store"
	"sfcp/internal/workload"
)

// packedSize is the byte count of n labels at width w: ⌈n·w/64⌉ words.
func packedSize(n, w int) int64 { return int64((n*w+63)/64) * 8 }

// TestPackedLabelsRoundTrip packs labels whose largest value has exactly
// w bits, at lengths around a word's 64 bits and at 2^16, and checks the
// width, the word count and the unpacked labels. At w = 31 and 63 fields
// straddle word boundaries; an all-ones straddling field between zero
// neighbours catches a bit landing in the wrong word.
func TestPackedLabelsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{0, 1, 2, 31, 63} {
		for _, n := range []int{0, 1, 63, 64, 65, 1 << 16} {
			labels := make([]int, n)
			if w > 0 {
				for i := range labels {
					labels[i] = int(rng.Uint64() & (1<<w - 1))
				}
				// Label i = 64/w spans bits [i·w, (i+1)·w), across bit 64
				// when w does not divide 64.
				if i := 64 / w; 64%w != 0 && i+1 < n {
					labels[i-1], labels[i], labels[i+1] = 0, 1<<w-1, 0
				}
				if n > 0 {
					labels[n-1] = 1<<w - 1
				}
			}
			p := packLabels(labels)
			wantW := w
			if n == 0 {
				wantW = 0
			}
			if int(p.width) != wantW || int64(len(p.words))*8 != packedSize(n, wantW) {
				t.Errorf("w=%d n=%d: width %d with %d words, want %d with %d", w, n, p.width, len(p.words), wantW, packedSize(n, wantW)/8)
			}
			if got := p.unpack(); !slices.Equal(got, labels) {
				t.Errorf("w=%d n=%d: unpacked labels differ", w, n)
			}
		}
	}
}

// TestCacheGetReturnsFreshSlice: every Get unpacks into its own slice,
// and Put keeps no reference to the caller's labels.
func TestCacheGetReturnsFreshSlice(t *testing.T) {
	c := newResultCache(4, 0)
	labels := []int{0, 1, 2, 1, 0, 3}
	c.Put("k", sfcp.Result{Labels: labels, NumClasses: 4})
	labels[0] = 9
	a, okA := c.Get("k")
	b, okB := c.Get("k")
	if !okA || !okB {
		t.Fatal("cached result missing")
	}
	want := []int{0, 1, 2, 1, 0, 3}
	if !slices.Equal(a.Labels, want) || !slices.Equal(b.Labels, want) || a.NumClasses != 4 {
		t.Fatalf("Get = %v and %v (%d classes), want %v", a.Labels, b.Labels, a.NumClasses, want)
	}
	if &a.Labels[0] == &b.Labels[0] {
		t.Fatal("two Gets share one label slice")
	}
	a.Labels[1] = 7
	if c, _ := c.Get("k"); !slices.Equal(c.Labels, want) {
		t.Errorf("a write to one Get's labels reached the cache: %v", c.Labels)
	}
}

// TestCacheConcurrentPutGet stores and reads one key from several
// goroutines at once; every Get must see one whole stored result. Run it
// with -race.
func TestCacheConcurrentPutGet(t *testing.T) {
	c := newResultCache(2, 1<<20)
	result := func(v int) sfcp.Result {
		labels := make([]int, 300)
		for i := range labels {
			labels[i] = (i * v) % (v + 1)
		}
		return sfcp.Result{Labels: labels, NumClasses: v}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				v := 1 + (g*200+i)%50
				c.Put("k", result(v))
				got, ok := c.Get("k")
				if !ok {
					t.Error("entry missing after Put")
					return
				}
				if !slices.Equal(got.Labels, result(got.NumClasses).Labels) {
					t.Errorf("Get returned labels of another result than its NumClasses %d", got.NumClasses)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 1 {
		t.Errorf("len %d, want 1", c.Len())
	}
}

// FuzzCacheLabels: any non-negative labels come back from the cache
// exactly, and the entry is charged its packed size. The first byte sets
// the width (mod 64); each following 8 bytes, masked to it, is one label.
func FuzzCacheLabels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append([]byte{31}, bytes.Repeat([]byte{0xff}, 8*3)...)) // 2^31−1 three times
	f.Add(append([]byte{63}, bytes.Repeat([]byte{0xa5}, 8*65)...))
	f.Add(append([]byte{7}, bytes.Repeat([]byte{1, 2, 3}, 100)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w uint
		if len(data) > 0 {
			w, data = uint(data[0]%64), data[1:]
		}
		labels := make([]int, (len(data)+7)/8)
		for i := range labels {
			var word [8]byte
			copy(word[:], data[8*i:])
			labels[i] = int(binary.LittleEndian.Uint64(word[:]) & (1<<w - 1))
		}
		var all uint
		for _, l := range labels {
			all |= uint(l)
		}
		c := newResultCache(1, 0)
		c.Put("k", sfcp.Result{Labels: labels})
		got, ok := c.Get("k")
		if !ok || !slices.Equal(got.Labels, labels) {
			t.Fatalf("cache returned %v, want %v", got.Labels, labels)
		}
		if want := packedSize(len(labels), bits.Len(all)) + 1 + cacheEntryOverhead; c.Bytes() != want {
			t.Fatalf("Bytes() = %d, want %d", c.Bytes(), want)
		}
	})
}

// TestCacheHitEndToEnd posts one 2^16-element binary instance twice: the
// second reply comes from the cache with the first reply's labels, and
// the cache holds them packed at ⌈log₂ k⌉ bits each. A restart over the
// same blob tier serves the instance from a spilled result, which the
// read-through packs the same way.
func TestCacheHitEndToEnd(t *testing.T) {
	const n = 1 << 16
	wl := workload.RandomFunction(3, n, 3)
	ins := sfcp.Instance{F: wl.F, B: wl.B}
	want, err := sfcp.Solve(ins.F, ins.B)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := ins.EncodeBinary(&wire); err != nil {
		t.Fatal(err)
	}
	blobs := store.NewMemBlobStore()
	for _, boot := range []string{"first", "restarted"} {
		s := New(Config{BlobStore: blobs, SpillN: 1 << 10, Logf: t.Logf})
		ts := httptest.NewServer(s)
		key := cacheKey(sfcp.AlgorithmLinear, s.cfg.Seed, ins.Digest())
		for i, wantCached := range []bool{boot == "restarted", true} {
			res := postSolveBinary(t, ts.URL, wire.Bytes())
			if res.Cached != wantCached || !slices.Equal(res.Labels, want) {
				t.Fatalf("%s server, reply %d: cached %v (want %v), labels equal to sfcp.Solve: %v",
					boot, i, res.Cached, wantCached, slices.Equal(res.Labels, want))
			}
			bound := packedSize(n, bits.Len(uint(res.NumClasses-1))) + int64(len(key)) + cacheEntryOverhead
			if got := cacheBytesGauge(t, ts.URL); got > bound || got <= cacheEntryOverhead {
				t.Errorf("%s server, reply %d: sfcpd_cache_bytes %d, want in (%d, %d]", boot, i, got, cacheEntryOverhead, bound)
			}
		}
		ts.Close()
		s.Close()
	}
}

func postSolveBinary(t *testing.T, url string, body []byte) SolveResponse {
	t.Helper()
	resp, err := http.Post(url+"/solve", sfcp.BinaryMediaType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("binary /solve: status %d, decode error %v", resp.StatusCode, err)
	}
	return out
}

func cacheBytesGauge(t *testing.T, url string) int64 {
	t.Helper()
	_, data := get(t, url+"/metrics")
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "sfcpd_cache_bytes "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatal("sfcpd_cache_bytes not in /metrics")
	return 0
}

// BenchmarkCacheLabels times Put (the pack) and Get (the unpack into a
// fresh slice) of one result at 2^20 elements, per element, on a random
// function's labels (832,301 classes, 20 bits each).
func BenchmarkCacheLabels(b *testing.B) {
	wl := workload.RandomFunction(1, 1<<20, 3)
	labels, err := sfcp.Solve(wl.F, wl.B)
	if err != nil {
		b.Fatal(err)
	}
	res := sfcp.Result{Labels: labels}
	c := newResultCache(1, 0)
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(labels)), "ns/elem")
	}
	b.Run("put", func(b *testing.B) {
		for b.Loop() {
			c.Put("k", res)
		}
		perElem(b)
	})
	b.Run("get", func(b *testing.B) {
		for b.Loop() {
			if _, ok := c.Get("k"); !ok {
				b.Fatal("miss")
			}
		}
		perElem(b)
	})
}
