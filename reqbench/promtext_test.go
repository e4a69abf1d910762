package main

import (
	"os"
	"testing"
)

// testdata/metrics.txt is a scrape of a real sfcpd after a few solves, a
// bad request, a batch, a delta and a job.
func TestParseScrape(t *testing.T) {
	raw, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseScrape(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"cache hits", s.get(mCacheHits), 1},
		{"cache misses", s.get(mCacheMisses), 5},
		{"solve errors by route", s.get(mErrors, "route", "solve"), 1},
		{"all errors", s.sum(mErrors), 1},
		{"requests", s.sum("sfcpd_requests_total"), 9},
		{"linear plans", s.get(mPlanAlgorithm, "algorithm", "linear"), 5},
		{"all plans", s.sum(mPlanAlgorithm), 6},
		{"drain flushes", s.get(mFlushes, "reason", "drain"), 3},
		{"queue seconds", s.get(mQueueSecondsSum), 9.7584e-05},
		{"incremental resolves", s.get(mResolve, "mode", "incremental"), 1},
		{"dirty-frac +Inf bucket", s["sfcpd_resolve_dirty_frac_bucket{le=\"+Inf\"}"], 1},
		{"cache bytes gauge", s.get(mCacheBytes), 1743},
		{"blob write bytes", s.get(mBlobWriteBytes), 82},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %g, want %g", tc.name, tc.got, tc.want)
		}
	}
	// The family-sum must not pick up a family whose name extends
	// another's (sfcpd_solves_total vs sfcpd_solve_errors_total...).
	if got := s.sum("sfcpd_solve"); got != 0 {
		t.Errorf("sum over a name prefix = %g, want 0", got)
	}
}

func TestMetricDeltaOverSegments(t *testing.T) {
	b := &bench{segs: []*segment{
		{before: scrape{mCacheHits: 10, mCacheBytes: 500}, after: scrape{mCacheHits: 25, mCacheBytes: 300}},
		{before: scrape{}, after: scrape{mCacheHits: 5, mCacheBytes: 100}},
	}}
	d := b.metricDelta()
	if d[mCacheHits] != 20 || d[mCacheBytes] != 200 {
		t.Errorf("metricDelta = %v, want counters summed (20) and the gauge's end values averaged (200)", d)
	}
}

func TestParseScrapeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"sfcpd_x", "sfcpd_x{a=\"b c\"} nope"} {
		if _, err := parseScrape(bad); err == nil {
			t.Errorf("parseScrape(%q) accepted it", bad)
		}
	}
	s, err := parseScrape("sfcpd_x{a=\"b c\"} 2\n# TYPE y counter\n\n")
	if err != nil || s.get("sfcpd_x", "a", "b c") != 2 {
		t.Errorf("label value with a space: %v, %v", s, err)
	}
}
