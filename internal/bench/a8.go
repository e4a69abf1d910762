// A8 measures the raw incremental machinery against the raw sequential
// solver; routing it through the engine would fold the planner's
// crossover decision into both arms.
//
//sfcpvet:ignore-file enginedispatch -- see above
package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sfcp/internal/calib"
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
// the full solver always pays for all n elements. Emits one JSON document
// (like A5–A7) for BENCH_A8.json trajectory tracking; the single-edit
// rows at n >= 2^20 are the ones the acceptance gate reads. Each row also
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
		FullNS     int64   `json:"full_ns"`
		Speedup    float64 `json:"speedup"`
		Agree      bool    `json:"agree"`
	}
	doc := struct {
		Experiment string                `json:"experiment"`
		Title      string                `json:"title"`
		GOMAXPROCS int                   `json:"gomaxprocs"`
		Host       calib.HostFingerprint `json:"host"`
		CycleLen   int                   `json:"cycle_len"`
		Reps       int                   `json:"reps_per_sample"`
		Rows       []row                 `json:"rows"`
	}{
		Experiment: "A8",
		Title:      "incremental re-solve: delta-apply latency vs full re-solve, by delta size",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       calib.Fingerprint(),
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
		for _, edits := range []int{1, 8, 64, k / 4} {
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
			agree := len(labels) == len(full)
			for i := 0; agree && i < len(full); i++ {
				agree = int(labels[i]) == full[i]
			}
			doc.Rows = append(doc.Rows, row{
				N:          n,
				StateBytes: stateBytes,
				Components: k,
				Edits:      edits,
				DirtyNodes: info.DirtyNodes,
				DirtyFrac:  info.DirtyFrac,
				IncrNS:     int64(incrDur),
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
