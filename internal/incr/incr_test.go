package incr

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sfcp/internal/addr"
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
		want, _ := coarsest.LinearSequentialScratch(ins, nil)
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
			info, err := st.ApplyDelta(edits)
			if err != nil {
				t.Fatalf("%s round %d: ApplyDelta: %v", name, round, err)
			}
			want, _ := coarsest.LinearSequentialScratch(cur, nil)
			if !equalInts(st.Labels(), want) {
				t.Fatalf("%s round %d: incremental labels differ from full solve (dirty %d/%d, re-founded %q)",
					name, round, info.DirtyNodes, n, info.Refound)
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

// TestLabelsOnRead reads labels only after runs of 1, 2 and 5 deltas: the
// renumber on read must give a full solve's labels however many deltas it
// catches up on, a second read with no delta between must give them
// again, and the class count, which the per-code counts keep without a
// renumber, must match a full solve after every delta, read or not. The
// runs go over every family, then over a broom, where every delta
// re-founds, and end in a re-found for code exhaustion and for a
// wide-table compaction while the labels are stale.
func TestLabelsOnRead(t *testing.T) {
	apply := func(t *testing.T, st *State, cur coarsest.Instance, edits []Edit) Info {
		t.Helper()
		mirror(cur, edits)
		info, err := st.ApplyDelta(edits)
		if err != nil {
			t.Fatal(err)
		}
		_, want := coarsest.LinearSequentialScratch(cur, nil)
		if info.NumClasses != want || st.NumClasses() != want {
			t.Fatalf("%d classes in Info, %d from NumClasses, full solve %d (re-founded %q)",
				info.NumClasses, st.NumClasses(), want, info.Refound)
		}
		return info
	}
	read := func(t *testing.T, st *State, cur coarsest.Instance) {
		t.Helper()
		want, _ := coarsest.LinearSequentialScratch(cur, nil)
		if !equalInts(st.Labels(), want) {
			t.Fatal("labels read after the run differ from a full solve")
		}
		if !equalInts(st.Labels(), want) {
			t.Fatal("a second read with no delta between differs from a full solve")
		}
	}
	runs := []int{1, 2, 5}
	for name, base := range families() {
		for _, run := range runs {
			t.Run(fmt.Sprintf("%s/run=%d", name, run), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(run)))
				cur := cloneIns(base)
				st, err := Build(cur)
				if err != nil {
					t.Fatal(err)
				}
				// The first read also catches up on Build.
				for range 8 {
					for range run {
						edits := randomEdits(rng, len(cur.F), 1+rng.Intn(4))
						if name == "wide-labels" {
							edits = widenEdits(edits)
						}
						apply(t, st, cur, edits)
					}
					read(t, st, cur)
				}
			})
		}
	}

	t.Run("broom", func(t *testing.T) {
		w := workload.Broom(5, 200, 12, 4)
		cur := coarsest.Instance{F: w.F, B: w.B}
		st, err := Build(cur)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for _, run := range runs {
			for range run {
				// B edits keep the broom one component.
				edits := []Edit{{Node: rng.Intn(len(cur.F)), SetB: true, B: rng.Intn(5)}}
				if info := apply(t, st, cur, edits); info.Refound != "no clean node left" {
					t.Fatalf("a broom delta re-founded %q", info.Refound)
				}
			}
			read(t, st, cur)
		}
	})

	t.Run("code space exhausted", func(t *testing.T) {
		cur := chains()
		st, err := Build(cur)
		if err != nil {
			t.Fatal(err)
		}
		read(t, st, cur)
		for d := 0; ; d++ {
			if d == 200 {
				t.Fatal("no delta exhausted the code space")
			}
			info := apply(t, st, cur, []Edit{{Node: chainLen / 2, SetB: true, B: 1000 + d}})
			if info.Refound == "code space exhausted" {
				break
			}
		}
		read(t, st, cur)
	})

	t.Run("wide-label table compacted", func(t *testing.T) {
		w := workload.DistinctCycles(3, 8, 16, 3)
		cur := wideLabels(coarsest.Instance{F: w.F, B: w.B})
		st, err := Build(cur)
		if err != nil {
			t.Fatal(err)
		}
		st.wideMax = len(st.wide)
		if info := apply(t, st, cur, []Edit{{Node: 40, SetB: true, B: 1<<62 | 99}}); info.Refound != "wide-label table compacted" {
			t.Fatalf("a delta that compacted the wide table re-founded %q", info.Refound)
		}
		read(t, st, cur)
	})
}

// chainLen is the node count of each chain that chains builds.
const chainLen = 12

// chains is four chains of chainLen nodes (deep trees onto self-loops),
// so an edit leaves clean nodes; every B relabel of the first chain to a
// fresh value mints fresh pair codes down its suffix.
func chains() coarsest.Instance {
	ins := coarsest.Instance{F: make([]int, 4*chainLen), B: make([]int, 4*chainLen)}
	for i := range ins.F {
		ins.F[i] = i - min(i%chainLen, 1)
	}
	return ins
}

// TestCodeExhaustionValve drives structural churn until the persistent
// code counter passes the bound, and checks the valve re-founds the state
// for that cause and the state stays correct afterwards.
func TestCodeExhaustionValve(t *testing.T) {
	cur := chains()
	st, err := Build(cur)
	if err != nil {
		t.Fatal(err)
	}
	fresh := 1000
	refound := ""
	for round := 0; round < 200 && refound == ""; round++ {
		fresh++
		edits := []Edit{{Node: chainLen / 2, SetB: true, B: fresh}}
		mirror(cur, edits)
		info, err := st.ApplyDelta(edits)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := coarsest.LinearSequentialScratch(cur, nil); !equalInts(st.Labels(), want) {
			t.Fatalf("round %d: labels diverged (re-founded %q)", round, info.Refound)
		}
		refound = info.Refound
	}
	if refound != "code space exhausted" {
		t.Fatalf("valve cause %q, want code space exhausted: %d pair and %d cycle codes of %d",
			refound, len(st.keys), st.limit-st.low, st.limit)
	}
	// The state remains usable and correct after the re-found.
	edits := []Edit{{Node: 3, SetF: true, F: 40}}
	mirror(cur, edits)
	if _, err := st.ApplyDelta(edits); err != nil {
		t.Fatal(err)
	}
	if want, _ := coarsest.LinearSequentialScratch(cur, nil); !equalInts(st.Labels(), want) {
		t.Fatal("labels diverged after the re-found")
	}
}

// TestCrossComponentRetarget splits and merges components explicitly:
// retargeting an edge into another component must dirty both and keep
// membership bookkeeping exact (later edits to migrated nodes still
// resolve correct dirty sets). A third component stays clean, so every
// step runs the region pass.
func TestCrossComponentRetarget(t *testing.T) {
	// Three disjoint 8-cycles, each with a 4-chain hanging off node 0.
	mk := func() coarsest.Instance {
		n := 36
		f := make([]int, n)
		b := make([]int, n)
		for c := 0; c < 3; c++ {
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
		info, err := st.ApplyDelta(edits)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if info.Refound != "" {
			t.Fatalf("step %d: re-founded %q, want a region pass", i, info.Refound)
		}
		if want, _ := coarsest.LinearSequentialScratch(cur, nil); !equalInts(st.Labels(), want) {
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
	for _, tc := range []struct {
		name         string
		edits        []Edit
		nodes, comps int
		refound      string
	}{
		{"B edit", []Edit{{Node: 1, SetB: true, B: 5}}, 4, 1, ""},
		{"cross retarget", []Edit{{Node: 1, SetF: true, F: 6}}, 8, 2, "no clean node left"},
	} {
		mirror(cur, tc.edits)
		info, err := st.ApplyDelta(tc.edits)
		if err != nil {
			t.Fatal(err)
		}
		if info.DirtyNodes != tc.nodes || info.DirtyComponents != tc.comps || info.Refound != tc.refound {
			t.Errorf("%s: dirty = (%d nodes, %d comps), re-founded %q; want (%d, %d), %q",
				tc.name, info.DirtyNodes, info.DirtyComponents, info.Refound, tc.nodes, tc.comps, tc.refound)
		}
		if want, _ := coarsest.LinearSequentialScratch(cur, nil); !equalInts(st.Labels(), want) {
			t.Errorf("%s: labels differ from full solve", tc.name)
		}
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
		if _, err := st.ApplyDelta(edits); err == nil {
			t.Errorf("case %d: ApplyDelta accepted invalid edit %+v", i, edits[0])
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
	info, err := st2.ApplyDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st2.Labels(), before) || info.DirtyNodes != 0 || info.NumClasses != st2.NumClasses() {
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
	if _, err := st.ApplyDelta(edits); err != nil {
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
			if _, err := st.ApplyDelta(edits); err != nil {
				t.Fatal(err)
			}
			all = append(all, slices.Clone(st.Labels()))
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

// twoCycles is n/2 two-cycles, 2i <-> 2i+1, with B[x] = label(x).
func twoCycles(n int, label func(x int) int) coarsest.Instance {
	ins := coarsest.Instance{F: make([]int, n), B: make([]int, n)}
	for x := range ins.F {
		ins.F[x], ins.B[x] = x^1, label(x)
	}
	return ins
}

// TestStateBytes pins a session's memory in bytes, counted from slice
// capacities (plus the canonical strings, an estimate per map entry and
// the address tree, asked for after Build and after every delta), so the
// figure is deterministic. It holds byteBudget after Build and
// after every delta: 256 random single-edit deltas on the request
// benchmark's four families and on wide labels, and 2n deltas that each
// give one node of n/2 two-cycles a fresh label, minting a canonical
// string of period two. Two-cycles with distinct wide labels need more
// than the budget on their own; there the valve must not re-found over
// and over. Every row runs twice: with no label read, as a stream of
// label-free deltas leaves a session, and with the labels read after
// Build and after every delta, which adds them (4 B/elem) to the session.
func TestStateBytes(t *testing.T) {
	const n = 1 << 16
	const pairs = 1 << 12
	conv := func(w workload.Instance) coarsest.Instance { return coarsest.Instance{F: w.F, B: w.B} }
	random := func(rng *rand.Rand, _ int) []Edit { return randomEdits(rng, n, 1) }
	fresh := func(_ *rand.Rand, d int) []Edit {
		return []Edit{{Node: 2 * (d % (pairs / 2)), SetB: true, B: 1000 + d}}
	}
	rows := []struct {
		name   string
		ins    coarsest.Instance
		deltas int
		delta  func(rng *rand.Rand, d int) []Edit
		over   bool // Build alone passes byteBudget
	}{
		{"random", conv(workload.RandomFunction(1, n, 3)), 256, random, false},
		{"perm", conv(workload.RandomPermutation(1, n, 3)), 256, random, false},
		{"cycles", conv(workload.DistinctCycles(1, n/256, 256, 3)), 256, random, false},
		{"broom", conv(workload.Broom(1, n, 16, 64)), 256, random, false},
		{"wide", wideLabels(conv(workload.RandomFunction(1, n, 3))), 256,
			func(rng *rand.Rand, d int) []Edit { return widenEdits(random(rng, d)) }, false},
		{"two-cycle churn", twoCycles(pairs, func(int) int { return 0 }), 2 * pairs, fresh, false},
		{"wide two-cycles", twoCycles(pairs, func(x int) int { return x<<40 | 1<<62 }), 64,
			func(rng *rand.Rand, d int) []Edit { return widenEdits(fresh(rng, pairs+d)) }, true},
	}
	for _, r := range rows {
		for _, read := range []bool{false, true} {
			name := r.name
			if read {
				name += " (labels read)"
			}
			st, err := Build(r.ins)
			if err != nil {
				t.Fatal(err)
			}
			st.Digest()
			if read {
				st.Labels()
			}
			size := float64(len(r.ins.F))
			built, peak, refounds := float64(st.footprint())/size, 0.0, 0
			rng := rand.New(rand.NewSource(9))
			for d := range r.deltas {
				info, err := st.ApplyDelta(r.delta(rng, d))
				if err != nil {
					t.Fatal(err)
				}
				if info.Refound != "" {
					refounds++
				}
				if read {
					st.Labels()
				}
				st.Digest()
				peak = max(peak, float64(st.footprint())/size)
			}
			t.Logf("%s: %.1f B/elem after Build, at most %.1f after each of %d deltas, %d re-founds",
				name, built, peak, r.deltas, refounds)
			switch {
			case r.over != (built > byteBudget):
				t.Errorf("%s: session holds %.1f B/elem after Build; the row expects over %d to be %v", name, built, byteBudget, r.over)
			case !r.over && peak > byteBudget:
				t.Errorf("%s: session reaches %.1f B/elem after a delta, want <= %d", name, peak, byteBudget)
			case r.over && refounds > 1:
				t.Errorf("%s: %d re-founds in %d deltas, want at most 1", name, refounds, r.deltas)
			}
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
		info, err := st.ApplyDelta([]Edit{{Node: i*256 + 7, SetB: true, B: 1000 + i}})
		if err != nil {
			t.Fatal(err)
		}
		if info.Refound != "" || st.low == low {
			t.Fatalf("delta %d: re-founded %q, minted %d codes; want an incremental delta that mints", i, info.Refound, low-st.low)
		}
	}
	runtime.ReadMemStats(&after)
	if mean := float64(after.TotalAlloc-before.TotalAlloc) / 64; mean > maxMean {
		t.Errorf("a one-edit delta allocates %.0f B on average, want <= %d", mean, maxMean)
	}
}

// TestWideLabelDeltas holds the class rename of labels of 2^31 and above
// to a full solve across deltas: one that introduces a new wide label,
// one that removes the last node carrying one, its return, a delta
// editing every component, whose re-found drops the labels no node
// carries, and a wide table so full that interning compacts it and the
// delta re-founds. Snapshot must give the labels back exactly throughout.
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
		if want, _ := coarsest.LinearSequentialScratch(cur, nil); !equalInts(st.Labels(), want) {
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
		if _, err := st.ApplyDelta(step.edits); err != nil {
			t.Fatal(err)
		}
		check(step.name)
	}

	// Node 17's edit plus one per remaining cycle (cycles 0 and 1 are one
	// component now), each keeping the label it has, dirty every node.
	edits := []Edit{{Node: 17, SetB: true, B: 9}}
	for c := 2; c < 8; c++ {
		edits = append(edits, Edit{Node: 16 * c, SetB: true, B: cur.B[16*c]})
	}
	mirror(cur, edits)
	info, err := st.ApplyDelta(edits)
	if err != nil {
		t.Fatal(err)
	}
	if info.Refound != "no clean node left" {
		t.Fatalf("a delta editing every component re-founded %q", info.Refound)
	}
	check("re-found")
	live := map[int]bool{}
	for _, b := range cur.B {
		if b > 1<<31 {
			live[b] = true
		}
	}
	if len(st.wide) != len(live) {
		t.Fatalf("after the re-found %d wide labels interned, %d carried", len(st.wide), len(live))
	}

	// With no room left for a new wide label, interning compacts the
	// table, which renames classes, so the delta must re-found.
	st.wideMax = len(st.wide)
	edits = []Edit{{Node: 60, SetB: true, B: wide | 99}}
	mirror(cur, edits)
	info, err = st.ApplyDelta(edits)
	if err != nil {
		t.Fatal(err)
	}
	if info.Refound != "wide-label table compacted" {
		t.Fatalf("a delta that compacted the wide table re-founded %q", info.Refound)
	}
	check("compaction")
}

// TestDigestTracksEdits holds a session's maintained address to a fresh
// address of its Snapshot after every delta, on instances from one
// element to three leaves and five elements (a leaf covers 4096), with
// narrow and with wide labels: edits on both sides of each leaf edge,
// random bursts, the re-founds they cause and a wide-table compaction.
// The narrow sessions are asked for their address from the start, the
// wide ones only from the third delta on, after edits have landed. A
// rejected delta leaves the address as it was.
func TestDigestTracksEdits(t *testing.T) {
	const leaf = 4096
	for _, n := range []int{1, leaf - 1, leaf, leaf + 1, 3*leaf + 5} {
		for _, wide := range []bool{false, true} {
			w := workload.RandomFunction(int64(n), n, 3)
			ins := coarsest.Instance{F: w.F, B: w.B}
			if wide {
				ins = wideLabels(ins)
			}
			st, err := Build(ins)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step string) {
				t.Helper()
				snap := st.Snapshot()
				if got, want := st.Digest(), addr.Of(snap.F, snap.B); got != want {
					t.Fatalf("n=%d wide=%v, %s: session address %s, fresh address %s", n, wide, step, got, want)
				}
			}
			if !wide {
				check("build")
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for d := range 24 {
				var edits []Edit
				if d%3 == 0 {
					for _, x := range []int{0, leaf - 1, leaf, 2*leaf - 1, 2 * leaf, 3 * leaf, n - 1} {
						if x < n {
							edits = append(edits, Edit{Node: x, SetF: true, F: rng.Intn(n), SetB: true, B: rng.Intn(5)})
						}
					}
				} else {
					edits = randomEdits(rng, n, 1+rng.Intn(8))
				}
				if wide {
					edits = widenEdits(edits)
				}
				if _, err := st.ApplyDelta(edits); err != nil {
					t.Fatal(err)
				}
				if !wide || d >= 2 {
					check(fmt.Sprintf("delta %d", d))
				}
			}

			before := st.Digest()
			if _, err := st.ApplyDelta([]Edit{{Node: 0, SetB: true, B: 1}, {Node: n, SetB: true, B: 1}}); err == nil {
				t.Fatalf("n=%d: an edit out of range was accepted", n)
			}
			if got := st.Digest(); got != before {
				t.Fatalf("n=%d wide=%v: a rejected delta moved the address from %s to %s", n, wide, before, got)
			}

			if wide {
				// No room for a new wide label: interning compacts the
				// table and renames classes, not values.
				st.wideMax = len(st.wide)
				if info, err := st.ApplyDelta([]Edit{{Node: n - 1, SetB: true, B: 1<<62 | 12345}}); err != nil || info.Refound == "" {
					t.Fatalf("n=%d: compaction delta: %v, re-found %q", n, err, info.Refound)
				}
				check("compaction")
			}
		}
	}
}
