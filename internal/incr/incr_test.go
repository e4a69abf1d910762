package incr

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sfcp/internal/coarsest"
	"sfcp/internal/workload"
)

// families are the workload shapes the differential suite sweeps; sizes
// stay small so each shape runs many delta rounds.
func families() map[string]coarsest.Instance {
	toIns := func(w workload.Instance) coarsest.Instance {
		return coarsest.Instance{F: w.F, B: w.B}
	}
	return map[string]coarsest.Instance{
		"random":          toIns(workload.RandomFunction(1, 240, 3)),
		"permutation":     toIns(workload.RandomPermutation(2, 210, 2)),
		"cycles":          toIns(workload.CycleFamily(3, 6, 24, 4)),
		"distinct-cycles": toIns(workload.DistinctCycles(4, 6, 18, 2)),
		"broom":           toIns(workload.Broom(5, 200, 12, 4)),
		"star":            toIns(workload.Star(6, 150, 3)),
		"dfa":             toIns(workload.UnaryDFA(7, 180, 300)),
		"wide-labels":     wideLabels(toIns(workload.RandomFunction(8, 240, 3))),
	}
}

// equalInts reports whether a session's labels equal a full solve's.
func equalInts[S ~int | ~int32](a []S, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if int(a[i]) != b[i] {
			return false
		}
	}
	return true
}

// randomEdits draws a burst of point mutations against an n-element
// instance: mostly retargets and small-label relabels, with occasional
// fresh large labels to churn the persistent B-rename map.
func randomEdits(rng *rand.Rand, n, count int) []Edit {
	edits := make([]Edit, count)
	for i := range edits {
		e := Edit{Node: rng.Intn(n)}
		switch rng.Intn(3) {
		case 0:
			e.SetF, e.F = true, rng.Intn(n)
		case 1:
			e.SetB, e.B = true, rng.Intn(5)
		default:
			e.SetF, e.F = true, rng.Intn(n)
			e.SetB, e.B = true, rng.Intn(1000)
		}
		edits[i] = e
	}
	return edits
}

// mirror applies the same edits to a plain instance copy, the oracle's
// input.
func mirror(ins coarsest.Instance, edits []Edit) {
	for _, e := range edits {
		if e.SetF {
			ins.F[e.Node] = e.F
		}
		if e.SetB {
			ins.B[e.Node] = e.B
		}
	}
}

func cloneIns(ins coarsest.Instance) coarsest.Instance {
	return coarsest.Instance{
		F: append([]int(nil), ins.F...),
		B: append([]int(nil), ins.B...),
	}
}

func TestBuildMatchesFullSolve(t *testing.T) {
	for name, ins := range families() {
		st, err := Build(ins)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		want := coarsest.LinearSequential(ins)
		if !equalInts(st.Labels(), want) {
			t.Errorf("%s: Build labels differ from full solve", name)
		}
		if st.NumClasses() != coarsest.NumClasses(want) {
			t.Errorf("%s: Build classes = %d, want %d", name, st.NumClasses(), coarsest.NumClasses(want))
		}
	}
}

// TestApplyDeltaMatchesFullSolve is the core differential property: after
// every burst of random edits, the incremental labels are byte-identical
// to a full solve of the edited instance.
func TestApplyDeltaMatchesFullSolve(t *testing.T) {
	for name, base := range families() {
		rng := rand.New(rand.NewSource(42))
		cur := cloneIns(base)
		st, err := Build(cur)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		n := len(cur.F)
		for round := 0; round < 40; round++ {
			burst := 1 + rng.Intn(4)
			edits := randomEdits(rng, n, burst)
			if name == "wide-labels" && round%2 == 0 {
				// Every other round sets wide labels, so deltas both add
				// wide labels and replace them with narrow ones.
				edits = widenEdits(edits)
			}
			mirror(cur, edits)
			got, info, err := st.ApplyDelta(edits)
			if err != nil {
				t.Fatalf("%s round %d: ApplyDelta: %v", name, round, err)
			}
			want := coarsest.LinearSequential(cur)
			if !equalInts(got, want) {
				t.Fatalf("%s round %d: incremental labels differ from full solve (dirty %d/%d, rebuilt=%v)",
					name, round, info.DirtyNodes, n, info.Rebuilt)
			}
			if info.NumClasses != coarsest.NumClasses(want) {
				t.Fatalf("%s round %d: classes = %d, want %d", name, round, info.NumClasses, coarsest.NumClasses(want))
			}
			if info.DirtyFrac < 0 || info.DirtyFrac > 1 {
				t.Fatalf("%s round %d: dirty fraction %v out of [0,1]", name, round, info.DirtyFrac)
			}
		}
	}
}

// TestRebuildMatchesFullSolve pins the fallback path to the same oracle.
func TestRebuildMatchesFullSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := workload.RandomFunction(11, 300, 4)
	cur := coarsest.Instance{F: w.F, B: w.B}
	st, err := Build(cur)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		edits := randomEdits(rng, 300, 1+rng.Intn(8))
		mirror(cur, edits)
		got, info, err := st.Rebuild(edits)
		if err != nil {
			t.Fatalf("round %d: Rebuild: %v", round, err)
		}
		if !info.Rebuilt {
			t.Fatalf("round %d: Rebuild did not report Rebuilt", round)
		}
		if want := coarsest.LinearSequential(cur); !equalInts(got, want) {
			t.Fatalf("round %d: Rebuild labels differ from full solve", round)
		}
	}
}

// TestCodeExhaustionValve drives structural churn until the persistent
// code counter passes the rebuild bound, and checks the valve fires and
// the state stays correct afterwards.
func TestCodeExhaustionValve(t *testing.T) {
	// A chain (deep tree onto a self-loop) where every B relabel to a
	// fresh value mints fresh pair codes down the whole suffix.
	const n = 48
	f := make([]int, n)
	b := make([]int, n)
	for i := 1; i < n; i++ {
		f[i] = i - 1
	}
	cur := coarsest.Instance{F: f, B: b}
	st, err := Build(cur)
	if err != nil {
		t.Fatal(err)
	}
	fresh := 1000
	rebuilt := false
	for round := 0; round < 200 && !rebuilt; round++ {
		fresh++
		edits := []Edit{{Node: n / 2, SetB: true, B: fresh}}
		mirror(cur, edits)
		got, info, err := st.ApplyDelta(edits)
		if err != nil {
			t.Fatal(err)
		}
		if want := coarsest.LinearSequential(cur); !equalInts(got, want) {
			t.Fatalf("round %d: labels diverged (rebuilt=%v)", round, info.Rebuilt)
		}
		rebuilt = rebuilt || info.Rebuilt
	}
	if !rebuilt {
		t.Fatalf("valve never fired: %d pair and %d cycle codes of %d", len(st.keys), st.limit-st.low, st.limit)
	}
	// The state remains usable and correct after the rebuild.
	edits := []Edit{{Node: 3, SetF: true, F: 40}}
	mirror(cur, edits)
	got, _, err := st.ApplyDelta(edits)
	if err != nil {
		t.Fatal(err)
	}
	if want := coarsest.LinearSequential(cur); !equalInts(got, want) {
		t.Fatal("labels diverged after valve rebuild")
	}
}

// TestCrossComponentRetarget splits and merges components explicitly:
// retargeting an edge into another component must dirty both and keep
// membership bookkeeping exact (later edits to migrated nodes still
// resolve correct dirty sets).
func TestCrossComponentRetarget(t *testing.T) {
	// Two disjoint 8-cycles, each with a 4-chain hanging off node 0.
	mk := func() coarsest.Instance {
		n := 24
		f := make([]int, n)
		b := make([]int, n)
		for c := 0; c < 2; c++ {
			base := c * 12
			for i := 0; i < 8; i++ {
				f[base+i] = base + (i+1)%8
				b[base+i] = i % 2
			}
			prev := base
			for i := 8; i < 12; i++ {
				f[base+i] = prev
				b[base+i] = i % 3
				prev = base + i
			}
		}
		return coarsest.Instance{F: f, B: b}
	}
	cur := mk()
	st, err := Build(cur)
	if err != nil {
		t.Fatal(err)
	}
	steps := [][]Edit{
		// Graft component 0's chain tip onto component 1's cycle.
		{{Node: 11, SetF: true, F: 14}},
		// Edit a migrated node: its current component is the merged one.
		{{Node: 11, SetB: true, B: 9}},
		// Break component 1's cycle into a tree onto component 0.
		{{Node: 14, SetF: true, F: 0}},
		// Relabel inside what used to be component 1.
		{{Node: 17, SetB: true, B: 7}},
		// Re-close a small cycle among migrated nodes.
		{{Node: 16, SetF: true, F: 14}},
	}
	for i, edits := range steps {
		mirror(cur, edits)
		got, _, err := st.ApplyDelta(edits)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if want := coarsest.LinearSequential(cur); !equalInts(got, want) {
			t.Fatalf("step %d: labels differ from full solve", i)
		}
	}
}

func TestDirtyStats(t *testing.T) {
	// Two disjoint 4-cycles.
	cur := coarsest.Instance{
		F: []int{1, 2, 3, 0, 5, 6, 7, 4},
		B: []int{0, 1, 0, 1, 0, 0, 1, 1},
	}
	st, err := Build(cur)
	if err != nil {
		t.Fatal(err)
	}
	nodes, comps, err := st.DirtyStats([]Edit{{Node: 1, SetB: true, B: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 4 || comps != 1 {
		t.Fatalf("B edit: dirty = (%d nodes, %d comps), want (4, 1)", nodes, comps)
	}
	nodes, comps, err = st.DirtyStats([]Edit{{Node: 1, SetF: true, F: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 8 || comps != 2 {
		t.Fatalf("cross retarget: dirty = (%d nodes, %d comps), want (8, 2)", nodes, comps)
	}
	// DirtyStats must not mutate.
	if got, want := st.Labels(), coarsest.LinearSequential(cur); !equalInts(got, want) {
		t.Fatal("DirtyStats mutated the state")
	}
}

func TestEditValidation(t *testing.T) {
	st, err := Build(coarsest.Instance{F: []int{0, 0}, B: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Edit{
		{{Node: -1, SetB: true, B: 0}},
		{{Node: 2, SetB: true, B: 0}},
		{{Node: 0}},
		{{Node: 0, SetF: true, F: 2}},
		{{Node: 0, SetF: true, F: -1}},
		{{Node: 0, SetB: true, B: -3}},
	}
	for i, edits := range bad {
		if _, _, err := st.ApplyDelta(edits); err == nil {
			t.Errorf("case %d: ApplyDelta accepted invalid edit %+v", i, edits[0])
		}
		if _, _, err := st.DirtyStats(edits); err == nil {
			t.Errorf("case %d: DirtyStats accepted invalid edit %+v", i, edits[0])
		}
	}
}

func TestEmptyDeltaAndEmptyInstance(t *testing.T) {
	st, err := Build(coarsest.Instance{F: []int{}, B: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Labels(); got == nil || len(got) != 0 {
		t.Fatalf("empty instance labels = %v, want []", got)
	}
	w := workload.RandomFunction(3, 50, 2)
	st2, err := Build(coarsest.Instance{F: w.F, B: w.B})
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(st2.Labels())
	got, info, err := st2.ApplyDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, before) || info.DirtyNodes != 0 {
		t.Fatal("empty delta changed labels or reported dirty work")
	}
}

func TestSnapshotTracksEdits(t *testing.T) {
	w := workload.RandomFunction(9, 40, 3)
	cur := coarsest.Instance{F: w.F, B: w.B}
	st, err := Build(cur)
	if err != nil {
		t.Fatal(err)
	}
	edits := []Edit{{Node: 5, SetF: true, F: 7}, {Node: 6, SetB: true, B: 9}}
	mirror(cur, edits)
	if _, _, err := st.ApplyDelta(edits); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if !equalInts(snap.F, cur.F) || !equalInts(snap.B, cur.B) {
		t.Fatal("Snapshot does not reflect applied edits")
	}
	// The snapshot is a copy: mutating it must not corrupt the state.
	snap.F[0] = (snap.F[0] + 1) % len(snap.F)
	if got := st.Snapshot(); !equalInts(got.F, cur.F) {
		t.Fatal("Snapshot aliases internal state")
	}
}

// TestDeterminism: identical build + delta sequences yield identical
// labels (the renumber canonicalizes away map iteration order).
func TestDeterminism(t *testing.T) {
	run := func() [][]int32 {
		rng := rand.New(rand.NewSource(77))
		w := workload.RandomFunction(13, 200, 3)
		cur := coarsest.Instance{F: append([]int(nil), w.F...), B: append([]int(nil), w.B...)}
		st, err := Build(cur)
		if err != nil {
			t.Fatal(err)
		}
		var all [][]int32
		for round := 0; round < 15; round++ {
			edits := randomEdits(rng, 200, 1+rng.Intn(3))
			labels, _, err := st.ApplyDelta(edits)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, slices.Clone(labels))
		}
		return all
	}
	a, b := run(), run()
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("round %d: non-deterministic labels", i)
		}
	}
}

// wideLabels moves every label of ins above 2^40, past any 32-bit coder.
func wideLabels(ins coarsest.Instance) coarsest.Instance {
	for i, b := range ins.B {
		ins.B[i] = b<<40 | 1<<62
	}
	return ins
}

// TestStateBytes pins a session's memory in bytes, counted from slice
// capacities (plus the canonical strings and an estimate per map entry),
// so the figure is deterministic: after Build, and again after 256 random
// single-edit deltas, on the request benchmark's four families and on
// wide labels.
func TestStateBytes(t *testing.T) {
	const n = 1 << 16
	const maxBytes = 80
	conv := func(w workload.Instance) coarsest.Instance { return coarsest.Instance{F: w.F, B: w.B} }
	rows := []struct {
		name string
		ins  coarsest.Instance
	}{
		{"random", conv(workload.RandomFunction(1, n, 3))},
		{"perm", conv(workload.RandomPermutation(1, n, 3))},
		{"cycles", conv(workload.DistinctCycles(1, n/256, 256, 3))},
		{"broom", conv(workload.Broom(1, n, 16, 64))},
		{"wide", wideLabels(conv(workload.RandomFunction(1, n, 3)))},
	}
	for _, r := range rows {
		st, err := Build(r.ins)
		if err != nil {
			t.Fatal(err)
		}
		built := float64(st.footprint()) / n
		rng := rand.New(rand.NewSource(9))
		for range 256 {
			edits := randomEdits(rng, n, 1)
			if r.name == "wide" {
				edits = widenEdits(edits)
			}
			if _, _, err := st.ApplyDelta(edits); err != nil {
				t.Fatal(err)
			}
		}
		after := float64(st.footprint()) / n
		t.Logf("%s: %.1f B/elem after Build, %.1f after 256 deltas", r.name, built, after)
		if built > maxBytes || after > maxBytes {
			t.Errorf("%s: session holds %.1f B/elem after Build and %.1f after deltas, want <= %d",
				r.name, built, after, maxBytes)
		}
	}
}

// widenEdits moves the labels the edits set above 2^40.
func widenEdits(edits []Edit) []Edit {
	for i := range edits {
		if edits[i].SetB {
			edits[i].B = edits[i].B<<40 | 1<<62
		}
	}
	return edits
}

// TestDeltaAllocsFlat pins what a small delta allocates to a bound that
// does not grow with n: 64 one-edit deltas on distinct 256-node cycles of
// a 2^16-node instance, each minting a canonical string. A delta that
// re-makes a table over the code space instead pays O(n) bytes (16 B per
// code, about 1 MiB here).
func TestDeltaAllocsFlat(t *testing.T) {
	const n = 1 << 16
	const maxMean = 16 << 10
	w := workload.DistinctCycles(1, n/256, 256, 3)
	st, err := Build(coarsest.Instance{F: w.F, B: w.B})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range 64 {
		low := st.low
		_, info, err := st.ApplyDelta([]Edit{{Node: i*256 + 7, SetB: true, B: 1000 + i}})
		if err != nil {
			t.Fatal(err)
		}
		if info.Rebuilt || st.low == low {
			t.Fatalf("delta %d: rebuilt=%v, minted %d codes; want an incremental delta that mints", i, info.Rebuilt, low-st.low)
		}
	}
	runtime.ReadMemStats(&after)
	if mean := float64(after.TotalAlloc-before.TotalAlloc) / 64; mean > maxMean {
		t.Errorf("a one-edit delta allocates %.0f B on average, want <= %d", mean, maxMean)
	}
}

// TestWideLabelDeltas holds the class rename of labels of 2^31 and above
// to a full solve across deltas: one that introduces a new wide label,
// one that removes the last node carrying one, its return, a rebuild
// that drops the labels no node carries, and a wide table so full that
// interning compacts it and the next delta rebuilds. Snapshot must give
// the labels back exactly throughout.
func TestWideLabelDeltas(t *testing.T) {
	const wide = 1 << 62
	w := workload.DistinctCycles(3, 8, 16, 3)
	cur := wideLabels(coarsest.Instance{F: w.F, B: w.B})
	// A tree of four nodes onto cycle 0, so wide labels sit on both
	// cycle and tree nodes.
	for i := 0; i < 4; i++ {
		cur.F[16+i] = 3 * i
	}
	st, err := Build(cur)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		if want := coarsest.LinearSequential(cur); !equalInts(st.Labels(), want) {
			t.Fatalf("%s: labels differ from full solve", step)
		}
		snap := st.Snapshot()
		if !slices.Equal(snap.F, cur.F) || !slices.Equal(snap.B, cur.B) {
			t.Fatalf("%s: Snapshot differs from the edited instance", step)
		}
	}
	check("build")
	steps := []struct {
		name  string
		edits []Edit
	}{
		{"new wide label on a cycle node", []Edit{{Node: 40, SetB: true, B: wide | 77}}},
		{"new wide label on a tree node", []Edit{{Node: 17, SetB: true, B: wide | 78}}},
		{"last carrier relabelled narrow", []Edit{{Node: 40, SetB: true, B: 5}}},
		{"label back on another node", []Edit{{Node: 50, SetB: true, B: wide | 77}, {Node: 51, SetF: true, F: 50}}},
	}
	for _, step := range steps {
		mirror(cur, step.edits)
		if _, _, err := st.ApplyDelta(step.edits); err != nil {
			t.Fatal(err)
		}
		check(step.name)
	}

	edits := []Edit{{Node: 17, SetB: true, B: 9}}
	mirror(cur, edits)
	if _, _, err := st.Rebuild(edits); err != nil {
		t.Fatal(err)
	}
	check("rebuild")
	live := map[int]bool{}
	for _, b := range cur.B {
		if b > 1<<31 {
			live[b] = true
		}
	}
	if len(st.wide) != len(live) {
		t.Fatalf("after rebuild %d wide labels interned, %d carried", len(st.wide), len(live))
	}

	// With no room left for a new wide label, interning compacts the
	// table, which renames classes, so the delta must rebuild.
	st.wideMax = len(st.wide)
	edits = []Edit{{Node: 60, SetB: true, B: wide | 99}}
	mirror(cur, edits)
	_, info, err := st.ApplyDelta(edits)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rebuilt {
		t.Fatal("a delta that compacted the wide table did not rebuild")
	}
	check("compaction")
}
