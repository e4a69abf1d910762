// A8 times both arms of the delta planner on one state, ApplyDelta and
// Rebuild, beside a from-scratch sequential solve. engine.ResolveDelta
// runs only the arm its crossover picks, so through the engine a row
// could not show the other one.
//
//sfcpvet:ignore-file enginedispatch -- see above
package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/incr"
	"sfcp/internal/workload"
)

// A8IncrementalResolve measures what the incremental re-solve path buys:
// delta-apply latency against a from-scratch sequential solve of the
// edited instance, swept over instance size and delta size (edits land in
// distinct components, so the dirty fraction grows linearly with the edit
// count). The many-component DistinctCycles family is the incremental
// path's home regime — small deltas invalidate a small dirty region while
// the full solver always pays for all n elements. Each row also times
// Rebuild on the same edits, the arm engine.ResolveDelta runs above its
// 0.3 crossover, and the sweep's k/4 and k/2 edit counts put rows on
// both sides of it. Emits one JSON document (like A5 and A7) for
// BENCH_A8.json trajectory tracking; CI gates the single-edit rows and
// the rows at or below the crossover at n >= 2^20. Each row also
// carries the session's size: the live heap a GC leaves after incr.Build,
// less the one it left before, per element.
func A8IncrementalResolve(cfg Config) {
	type row struct {
		N          int     `json:"n"`
		StateBytes float64 `json:"state_bytes_per_elem"`
		Components int     `json:"components"`
		Edits      int     `json:"edits"`
		DirtyNodes int     `json:"dirty_nodes"`
		DirtyFrac  float64 `json:"dirty_frac"`
		IncrNS     int64   `json:"incr_ns"`
		RebuildNS  int64   `json:"rebuild_ns"`
		FullNS     int64   `json:"full_ns"`
		Speedup    float64 `json:"speedup"`
		Agree      bool    `json:"agree"`
	}
	doc := struct {
		Experiment string          `json:"experiment"`
		Title      string          `json:"title"`
		GOMAXPROCS int             `json:"gomaxprocs"`
		Host       HostFingerprint `json:"host"`
		CycleLen   int             `json:"cycle_len"`
		Reps       int             `json:"reps_per_sample"`
		Rows       []row           `json:"rows"`
	}{
		Experiment: "A8",
		Title:      "incremental re-solve: delta-apply latency vs full re-solve, by delta size",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       Fingerprint(),
		CycleLen:   256,
		Reps:       5,
	}
	fail := func(err error) {
		fmt.Fprintf(cfg.Out, "{\"experiment\":\"A8\",\"error\":%q}\n", err.Error())
	}
	if cfg.Quick {
		doc.Reps = 3
	}

	best := func(op func() error) (time.Duration, error) {
		bestDur := time.Duration(1<<63 - 1)
		for r := 0; r < doc.Reps; r++ {
			t0 := time.Now()
			if err := op(); err != nil {
				return 0, err
			}
			if d := time.Since(t0); d < bestDur {
				bestDur = d
			}
		}
		return bestDur, nil
	}

	for _, n := range sizes(cfg, []int{1 << 16, 1 << 18, 1 << 20}, []int{1 << 14, 1 << 16}) {
		k := n / doc.CycleLen
		wl := workload.DistinctCycles(cfg.Seed, k, doc.CycleLen, 3)
		ins := coarsest.Instance{F: wl.F, B: wl.B}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, err := incr.Build(ins)
		if err != nil {
			fail(err)
			return
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		stateBytes := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
		var sc coarsest.Scratch
		sweep := []int{1, 8, 64, k / 4, k / 2}
		slices.Sort(sweep)
		for _, edits := range slices.Compact(sweep) {
			if edits > k {
				continue
			}
			// One B-edit per distinct component: the dirty region is
			// exactly edits * CycleLen nodes. Re-applying an identical
			// already-applied delta is idempotent and costs the same
			// region recompute, so min-of-reps needs no state resets.
			delta := make([]incr.Edit, edits)
			for c := 0; c < edits; c++ {
				delta[c] = incr.Edit{Node: c * doc.CycleLen, SetB: true, B: 7}
			}
			edited := coarsest.Instance{
				F: append([]int{}, ins.F...),
				B: append([]int{}, ins.B...),
			}
			for _, e := range delta {
				edited.B[e.Node] = e.B
			}
			var full []int
			fullDur, err := best(func() error {
				full = coarsest.LinearSequentialScratch(edited, &sc)
				return nil
			})
			if err != nil {
				fail(err)
				return
			}
			// Both arms return the state's own label slice, so each is
			// checked before the other's run overwrites it.
			same := func(l int32, want int) bool { return int(l) == want }
			var labels []int32
			var info incr.Info
			incrDur, err := best(func() error {
				labels, info, err = st.ApplyDelta(delta)
				return err
			})
			if err != nil {
				fail(err)
				return
			}
			agree := slices.EqualFunc(labels, full, same)
			rebuildDur, err := best(func() error {
				labels, _, err = st.Rebuild(delta)
				return err
			})
			if err != nil {
				fail(err)
				return
			}
			agree = agree && slices.EqualFunc(labels, full, same)
			doc.Rows = append(doc.Rows, row{
				N:          n,
				StateBytes: stateBytes,
				Components: k,
				Edits:      edits,
				DirtyNodes: info.DirtyNodes,
				DirtyFrac:  info.DirtyFrac,
				IncrNS:     int64(incrDur),
				RebuildNS:  int64(rebuildDur),
				FullNS:     int64(fullDur),
				Speedup:    float64(fullDur) / float64(incrDur),
				Agree:      agree,
			})
		}
	}
	enc := json.NewEncoder(cfg.Out)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
