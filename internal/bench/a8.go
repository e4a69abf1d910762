// A8 times a delta on a live session against the two ways to start
// over: a fresh session built on the edited instance, and a from-scratch
// sequential solve of it.
//
//sfcpvet:ignore-file enginedispatch -- full_ns times the linear solver's own entry point with a scratch kept warm across reps, so the from-scratch column carries no planning or validation pass
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/engine"
	"sfcp/internal/incr"
	"sfcp/internal/workload"
)

// A8IncrementalResolve measures what the incremental re-solve path buys.
// Each row applies one delta to a live session (incr_ns, ApplyDelta as
// engine.ResolveDelta runs it, rep after rep with no label read between,
// as a stream of label-free deltas runs), then applies it again and reads
// its labels (labels_ns, the renumber the first State.Labels after a
// delta makes), and times, on the edited instance, a fresh session
// (build_ns, engine.NewIncremental, whose labels are not read) and a
// from-scratch sequential solve (full_ns). speedup is
// full_ns over incr_ns plus labels_ns: a delta whose labels are read
// against a solve that emits them. Three families at each n:
//   - distinct-cycles: 256-node cycles with mostly random labels, the
//     incremental path's home regime. One B edit per cycle, swept from one
//     cycle to all of them, so the dirty fraction grows linearly with the
//     edit count up to 1.
//   - broom: one component, so a single edit leaves no clean node.
//   - random: a random function, one edit on its largest component, then
//     a √n-edit burst over random nodes.
//
// refound says the session's valve re-founded the state instead of
// running the region pass. address_ns is what naming the child costs
// after each rep's delta (incr.State.Digest: the touched leaves and the
// root, every leaf having been hashed once after the build). agree says
// every rep's class count and every label read, from both sessions, equal
// the full solve's; the checks run outside the timed spans. Emits one JSON
// document (like A7) for BENCH_A8.json trajectory tracking; CI
// gates its rows. Each row also carries the session's size: the live
// heap a GC leaves after the build, less the one it left before, per
// element.
func A8IncrementalResolve(cfg Config) {
	type row struct {
		Family     string  `json:"family"`
		N          int     `json:"n"`
		StateBytes float64 `json:"state_bytes_per_elem"`
		Components int     `json:"components"`
		Edits      int     `json:"edits"`
		DirtyNodes int     `json:"dirty_nodes"`
		DirtyFrac  float64 `json:"dirty_frac"`
		Refound    bool    `json:"refound"`
		IncrNS     int64   `json:"incr_ns"`
		LabelsNS   int64   `json:"labels_ns"`
		AddressNS  int64   `json:"address_ns"`
		BuildNS    int64   `json:"build_ns"`
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
		Title:      "incremental re-solve: delta-apply latency vs a fresh session and a full re-solve, by family and delta size",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       Fingerprint(),
		CycleLen:   256,
		Reps:       5,
	}
	if cfg.Quick {
		doc.Reps = 3
	}

	var sc coarsest.Scratch
	same := func(l int32, want int) bool { return int(l) == want }

	// run builds a session on ins, then applies each delta in turn,
	// timing it against both ways to start over. A delta is a list of
	// B edits: re-applying one already applied is idempotent and costs
	// the same pass, so min-of-reps needs no state resets.
	run := func(family string, ins coarsest.Instance, comps int, deltas [][]incr.Edit) error {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, err := engine.NewIncremental(ins)
		if err != nil {
			return err
		}
		// A session hashes its leaves the first time it is asked for its
		// address; the server asks after its first delta.
		st.Digest()
		runtime.GC()
		runtime.ReadMemStats(&after)
		n := len(ins.F)
		stateBytes := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
		edited := coarsest.Instance{F: slices.Clone(ins.F), B: slices.Clone(ins.B)}
		for _, delta := range deltas {
			for _, e := range delta {
				edited.B[e.Node] = e.B
			}
			var full []int
			fullDur := time.Duration(math.MaxInt64)
			for range doc.Reps {
				t0 := time.Now()
				full, _ = coarsest.LinearSequentialScratch(edited, &sc)
				fullDur = min(fullDur, time.Since(t0))
			}
			// Each timed span ends before its result is checked. The
			// deltas run back to back, since a renumber between them
			// would evict a large session from the caches but not a
			// small one; the labels they leave are checked once after.
			classes := coarsest.NumClasses(full)
			agree := true
			var info incr.Info
			incrDur := time.Duration(math.MaxInt64)
			for range doc.Reps {
				t0 := time.Now()
				i, err := st.ApplyDelta(delta)
				d := time.Since(t0)
				if err != nil {
					return err
				}
				info, incrDur = i, min(incrDur, d)
				agree = agree && i.NumClasses == classes
			}
			agree = agree && slices.EqualFunc(st.Labels(), full, same)
			// Then each rep applies the delta again, reads its labels and
			// names the child: the touched leaves' rehash and the root.
			// The session's labels are its own slice, so each read is
			// checked before the next delta overwrites it.
			labelsDur, addrDur := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for range doc.Reps {
				if _, err := st.ApplyDelta(delta); err != nil {
					return err
				}
				t1 := time.Now()
				labels := st.Labels()
				labelsDur = min(labelsDur, time.Since(t1))
				agree = agree && slices.EqualFunc(labels, full, same)
				t2 := time.Now()
				st.Digest()
				addrDur = min(addrDur, time.Since(t2))
			}
			buildDur := time.Duration(math.MaxInt64)
			for range doc.Reps {
				t0 := time.Now()
				fresh, err := engine.NewIncremental(edited)
				d := time.Since(t0)
				if err != nil {
					return err
				}
				buildDur = min(buildDur, d)
				agree = agree && fresh.NumClasses() == classes && slices.EqualFunc(fresh.Labels(), full, same)
			}
			doc.Rows = append(doc.Rows, row{
				Family:     family,
				N:          n,
				StateBytes: stateBytes,
				Components: comps,
				Edits:      len(delta),
				DirtyNodes: info.DirtyNodes,
				DirtyFrac:  info.DirtyFrac,
				Refound:    info.Refound != "",
				IncrNS:     int64(incrDur),
				LabelsNS:   int64(labelsDur),
				AddressNS:  int64(addrDur),
				BuildNS:    int64(buildDur),
				FullNS:     int64(fullDur),
				Speedup:    float64(fullDur) / float64(incrDur+labelsDur),
				Agree:      agree,
			})
		}
		return nil
	}

	for _, n := range sizes(cfg, []int{1 << 16, 1 << 18, 1 << 20}, []int{1 << 14, 1 << 16}) {
		k := n / doc.CycleLen
		wl := workload.DistinctCycles(cfg.Seed, k, doc.CycleLen, 3)
		sweep := []int{1, 8, 64, k / 4, k / 2, k}
		slices.Sort(sweep)
		var deltas [][]incr.Edit
		for _, edits := range slices.Compact(sweep) {
			// One B edit per distinct cycle: the dirty region is exactly
			// edits * CycleLen nodes.
			delta := make([]incr.Edit, edits)
			for c := range delta {
				delta[c] = incr.Edit{Node: c * doc.CycleLen, SetB: true, B: 7}
			}
			deltas = append(deltas, delta)
		}
		err := run("distinct-cycles", coarsest.Instance{F: wl.F, B: wl.B}, k, deltas)

		if err == nil {
			wl = workload.Broom(cfg.Seed, n, 16, 64)
			err = run("broom", coarsest.Instance{F: wl.F, B: wl.B}, 1,
				[][]incr.Edit{{{Node: n - 1, SetB: true, B: 7}}})
		}

		if err == nil {
			wl = workload.RandomFunction(cfg.Seed, n, 3)
			comp, size := components(wl.F)
			largest := 0
			for c := range size {
				if size[c] > size[largest] {
					largest = c
				}
			}
			one := []incr.Edit{{Node: slices.Index(comp, largest), SetB: true, B: 7}}
			rng := rand.New(rand.NewSource(cfg.Seed))
			burst := make([]incr.Edit, int(math.Sqrt(float64(n))))
			for i := range burst {
				burst[i] = incr.Edit{Node: rng.Intn(n), SetB: true, B: 7}
			}
			err = run("random", coarsest.Instance{F: wl.F, B: wl.B}, len(size), [][]incr.Edit{one, burst})
		}
		if err != nil {
			fmt.Fprintf(cfg.Out, "{\"experiment\":\"A8\",\"error\":%q}\n", err.Error())
			return
		}
	}
	enc := json.NewEncoder(cfg.Out)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// components numbers the components of the function f: comp[x] is x's
// component and size[c] the node count of component c.
func components(f []int) (comp, size []int) {
	const unseen, onPath = -1, -2
	comp = make([]int, len(f))
	for x := range comp {
		comp[x] = unseen
	}
	var path []int
	for st := range f {
		path = path[:0]
		x := st
		for comp[x] == unseen {
			comp[x] = onPath
			path = append(path, x)
			x = f[x]
		}
		c := comp[x]
		if c == onPath {
			// The walk closed a cycle: a new component.
			c = len(size)
			size = append(size, 0)
		}
		for _, y := range path {
			comp[y] = c
		}
		size[c] += len(path)
	}
	return comp, size
}
