//sfcpvet:ignore-file metricname -- this file reads sfcpd's /metrics from outside the process; the family names here are a scraper's lookups, not exposition sites that need # TYPE lines

package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: sample value by series, the series
// written as in the text ("name" or `name{label="value"}`).
type scrape map[string]float64

// parseScrape reads the Prometheus text format sfcpd serves: comment and
// blank lines are skipped, every other line is a series and a value.
func parseScrape(text string) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		// Label values are quoted and may hold spaces, so the value is
		// whatever follows the last space after the closing brace.
		from := 0
		if i := strings.LastIndexByte(l, '}'); i >= 0 {
			from = i
		}
		sp := strings.IndexByte(l[from:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, l)
		}
		series, raw := l[:from+sp], strings.TrimSpace(l[from+sp:])
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// get returns one series: the bare family, or the family with one label.
func (s scrape) get(family string, labelValue ...string) float64 {
	if len(labelValue) == 2 {
		return s[fmt.Sprintf("%s{%s=%q}", family, labelValue[0], labelValue[1])]
	}
	return s[family]
}

// sum adds every series of a family, whatever its labels.
func (s scrape) sum(family string) float64 {
	total := 0.0
	for series, v := range s {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
		}
	}
	return total
}

// delta returns after minus before, series by series.
func delta(before, after scrape) scrape {
	out := scrape{}
	for series, v := range after {
		out[series] = v - before[series]
	}
	return out
}

// Families the benchmark reads.
const (
	mErrors          = "sfcpd_errors_total"
	mCacheHits       = "sfcpd_cache_hits_total"
	mCacheMisses     = "sfcpd_cache_misses_total"
	mCacheBytes      = "sfcpd_cache_bytes"
	mIngestBytes     = "sfcpd_ingest_bytes_total"
	mPlanAlgorithm   = "sfcpd_plan_algorithm_total"
	mCoalesced       = "sfcpd_batcher_coalesced_total"
	mFlushes         = "sfcpd_batcher_flushes_total"
	mQueueSecondsSum = "sfcpd_batcher_queue_seconds_sum"
	mQueueSecondsCnt = "sfcpd_batcher_queue_seconds_count"
	mResolve         = "sfcpd_resolve_total"
	mBlobReadBytes   = "sfcpd_store_blob_read_bytes_total"
	mBlobWriteBytes  = "sfcpd_store_blob_write_bytes_total"
	mSpilled         = "sfcpd_store_spilled_total"
)
