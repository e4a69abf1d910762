package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"sfcp/internal/jobs"
	"sfcp/internal/server"
)

// latencies returns the latencies in milliseconds of the successful ops
// of the given segments.
func (b *bench) latencies(segs ...*segment) []float64 {
	var out []float64
	for _, s := range segs {
		b.each(s, func(_ *op, r *result) {
			if r.ok() {
				out = append(out, ms(r.end-r.start))
			}
		})
	}
	return out
}

// segmentMetrics computes the end-to-end metrics of one segment.
func (b *bench) segmentMetrics(s *segment) map[string]float64 {
	lat := b.latencies(s)
	return map[string]float64{
		"ops_per_s":   float64(len(lat)) / s.window.Seconds(),
		"p50_ms":      percentile(lat, 0.5),
		"p90_ms":      percentile(lat, 0.9),
		"peak_rss_mb": s.peakMB,
	}
}

// endToEnd computes the metrics a user of sfcpd sees: the median set-up
// time, and the median over segments of every timed-window metric.
func (b *bench) endToEnd() map[string]metric {
	units := map[string]string{"ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms", "peak_rss_mb": "MiB"}
	per := map[string][]float64{}
	for _, s := range b.segs {
		for k, v := range b.segmentMetrics(s) {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]metric{"setup_s": {median(b.setups), "s"}}
	for k, u := range units {
		out[k] = metric{median(per[k]), u}
	}
	return out
}

// metricDelta sums the segments' /metrics deltas; the cache-bytes gauge
// is the mean of the segments' end values instead.
func (b *bench) metricDelta() scrape {
	out := scrape{}
	var cache []float64
	for _, s := range b.segs {
		for k, v := range delta(s.before, s.after) {
			out[k] += v
		}
		cache = append(cache, s.after[mCacheBytes])
	}
	out[mCacheBytes] = mean(cache)
	return out
}

// record is everything a later reader needs to interpret one run.
func (b *bench) record(e2e map[string]metric, attempted, failed int) map[string]any {
	var window, cpu, steal time.Duration
	var segs, discarded []map[string]any
	for _, s := range b.attempts() {
		window, cpu, steal = window+s.window, cpu+s.cpu, steal+s.steal
		desc := map[string]any{
			"ops":         [2]int{s.from, s.to},
			"window_s":    s.window.Seconds(),
			"steal_share": s.stealShare(),
			"metrics":     b.segmentMetrics(s),
		}
		if slices.Contains(b.segs, s) {
			segs = append(segs, desc)
		} else {
			discarded = append(discarded, desc)
		}
	}
	rec := map[string]any{
		"workload":         b.w.name,
		"seed":             b.seed,
		"holdout_seed":     b.seed == holdoutSeed,
		"traced":           b.trace,
		"host":             hostFingerprint(),
		"commit":           commit(),
		"server_sha256":    fileDigest(b.bin),
		"server_flags":     b.flags,
		"clients":          b.clients,
		"ops_per_client":   len(b.plan.clients[0]),
		"generate_s":       b.genTime.Seconds(),
		"setup_runs_s":     b.setups,
		"segment_setups_s": b.segSetups,
		"segments":         segs,
		"discarded":        discarded,
		"attempted":        attempted,
		"failed":           failed,
		"failed_frac":      ratio(float64(failed), float64(attempted)),
		"generator_cpu": map[string]float64{
			"cpu_s": cpu.Seconds(),
			// Share of all the host's cores the generator used during
			// the windows; sfcpd had the rest.
			"share_of_cores": ratio(cpu.Seconds(), window.Seconds()*float64(runtime.NumCPU())),
		},
		// CPU time the hypervisor gave other guests while this host's
		// CPUs wanted to run, during the windows: a noisy-neighbour gauge.
		"host_steal_s": steal.Seconds(),
		"end_to_end":   e2e,
		"op_shares":    b.opShares(),
		"error_routes": errorRoutes(b.metricDelta()),
	}
	// Pooled over all segments, for the tail percentiles one segment
	// cannot support.
	lat := b.latencies(b.segs...)
	if q := highestPercentile(len(lat)); q > 0 {
		name := fmt.Sprintf("p%g_ms", q*100)
		rec["tail"] = map[string]any{"name": name, "value": percentile(lat, q), "samples": len(lat)}
	}
	if supported(len(lat), 0.99) {
		rec["p99_ms"] = percentile(lat, 0.99)
	}
	return rec
}

// opShares measures, per workload, the share of ops with each property
// a later claim may rest on, from the replies themselves.
func (b *bench) opShares() map[string]float64 {
	var members, cached, coalesced, deltas, incremental, jobsDone, jobsCached float64
	for _, s := range b.segs {
		b.each(s, func(o *op, r *result) {
			if !r.ok() {
				return
			}
			switch o.kind {
			case opSolveJSON, opSolveBinary:
				var sr server.SolveResponse
				if json.Unmarshal(r.fields, &sr) == nil {
					members++
					cached += b2f(sr.Cached)
					coalesced += b2f(sr.Coalesced > 0)
				}
			case opBatchJSON:
				var br server.BatchResponse
				if json.Unmarshal(r.fields, &br) == nil {
					for _, m := range br.Results {
						members++
						cached += b2f(m.Cached)
						coalesced += b2f(m.Coalesced > 0)
					}
				}
			case opDelta:
				var dr server.DeltaResponse
				if json.Unmarshal(r.fields, &dr) == nil && dr.Resolve != nil {
					deltas++
					incremental += b2f(dr.Resolve.Mode == "incremental")
				}
			case opJob:
				var snap jobs.Snapshot
				if json.Unmarshal(r.fields, &snap) == nil {
					jobsDone++
					jobsCached += b2f(snap.Cached)
				}
			}
		})
	}
	m := b.metricDelta()
	out := map[string]float64{}
	if members > 0 {
		out["cached"] = cached / members
		out["coalesced"] = coalesced / members
	}
	if deltas > 0 {
		out["incremental"] = incremental / deltas
		out["full_fallback"] = 1 - incremental/deltas
	}
	if jobsDone > 0 {
		out["cached"] = jobsCached / jobsDone
		// Two spills per job mean both the payload and the result left RAM.
		out["spills_per_job"] = m.sum(mSpilled) / jobsDone
	}
	return out
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// errorRoutes is the sfcpd_errors_total delta by route.
func errorRoutes(m scrape) map[string]float64 {
	out := map[string]float64{}
	for series, v := range m {
		if route, ok := strings.CutPrefix(series, mErrors+`{route="`); ok && v != 0 {
			out[strings.TrimSuffix(route, `"}`)] = v
		}
	}
	return out
}

func hostFingerprint() map[string]any {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// commit is the checkout's git commit, or "unknown" when the benchmark
// does not run at the root of a git work tree (server_sha256 still names
// the build).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fileDigest(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeRecord stores the run record as <out>/runs/<workload>-s<seed>-t<trace>-<time>.json
// and prints a one-line summary of it to standard error.
func writeRecord(out, workload string, seed uint64, traced bool, rec map[string]any) error {
	dir := filepath.Join(out, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%d.json", workload, seed, t, time.Now().UnixNano()))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "reqbench: %s seed %d: record %s\n", workload, seed, path)
	return nil
}

// tracingOverhead sets a traced run's throughput beside the untraced
// throughput of the latest untraced run of the same workload and seed in
// <out>/runs, and prints both; their difference is what tracing costs.
func tracingOverhead(out, workload string, seed uint64, traced float64) map[string]any {
	res := map[string]any{"traced_ops_per_s": traced}
	paths, _ := filepath.Glob(filepath.Join(out, "runs", fmt.Sprintf("%s-s%d-t0-*.json", workload, seed)))
	slices.Sort(paths) // the names end in a nanosecond timestamp
	if len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "reqbench: traced ops_per_s %.4g (no untraced run of this seed to compare)\n", traced)
		return res
	}
	raw, err := os.ReadFile(paths[len(paths)-1])
	var rec struct {
		EndToEnd map[string]metric `json:"end_to_end"`
	}
	if err != nil || json.Unmarshal(raw, &rec) != nil {
		return res
	}
	untraced := rec.EndToEnd["ops_per_s"].Value
	res["untraced_ops_per_s"] = untraced
	res["overhead_frac"] = ratio(untraced-traced, untraced)
	fmt.Fprintf(os.Stderr, "reqbench: ops_per_s traced %.4g, untraced %.4g (%s)\n", traced, untraced, paths[len(paths)-1])
	return res
}
