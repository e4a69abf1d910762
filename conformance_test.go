package sfcp

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sfcp/internal/workload"
)

// conformanceFamilies enumerates every internal/workload generator family,
// sized so the PRAM simulator stays fast while all structural regimes are
// exercised: random pseudo-forests, pure permutations, equivalent and
// distinct cycle families, deep brooms, wide stars, and unary DFAs — plus
// random functions whose labels all lie at or above 2^31, beyond what the
// PRAM pair coder packs, so every solver's label renaming is held to
// Moore too.
var conformanceFamilies = []struct {
	name string
	gen  func(seed int64) workload.Instance
}{
	{"random", func(s int64) workload.Instance { return workload.RandomFunction(s, 240, 3) }},
	{"permutation", func(s int64) workload.Instance { return workload.RandomPermutation(s, 210, 2) }},
	{"cycles", func(s int64) workload.Instance { return workload.CycleFamily(s, 6, 24, 4) }},
	{"distinct-cycles", func(s int64) workload.Instance { return workload.DistinctCycles(s, 6, 18, 2) }},
	{"broom", func(s int64) workload.Instance { return workload.Broom(s, 200, 12, 4) }},
	{"star", func(s int64) workload.Instance { return workload.Star(s, 150, 3) }},
	{"dfa", func(s int64) workload.Instance { return workload.UnaryDFA(s, 180, 300) }},
	{"wide-labels", func(s int64) workload.Instance {
		w := workload.RandomFunction(s, 240, 3)
		for i, b := range w.B {
			w.B[i] = b<<40 | 1<<62
		}
		return w
	}},
}

// TestConformanceAllAlgorithms is the differential suite: every Algorithm
// over every workload family must return labels *identical* to Moore's —
// not merely the same partition, since all solvers normalize by first
// occurrence.
func TestConformanceAllAlgorithms(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, fam := range conformanceFamilies {
		for _, seed := range seeds {
			ins := Instance(fam.gen(seed))
			ref, err := SolveWith(ins, Options{Algorithm: AlgorithmMoore})
			if err != nil {
				t.Fatalf("%s/seed%d: moore reference: %v", fam.name, seed, err)
			}
			for _, algo := range Algorithms() {
				t.Run(fmt.Sprintf("%s/seed%d/%s", fam.name, seed, algo), func(t *testing.T) {
					res, err := SolveWith(ins, Options{Algorithm: algo, Seed: uint64(seed)})
					if err != nil {
						t.Fatal(err)
					}
					if res.NumClasses != ref.NumClasses {
						t.Fatalf("%d classes, moore found %d", res.NumClasses, ref.NumClasses)
					}
					for i := range res.Labels {
						if res.Labels[i] != ref.Labels[i] {
							t.Fatalf("labels[%d] = %d, moore says %d (first divergence)",
								i, res.Labels[i], ref.Labels[i])
						}
					}
				})
			}
		}
	}
}

// TestConformanceResolve sweeps the incremental re-solve path over every
// workload family and demands labels and a class count equal to a full
// solve of the edited instance each time. One session takes three delta
// scales in turn — a single edit, a √n burst, and an n/4 burst — with
// edits anywhere, so most of them dirty every component and the session's
// valve re-founds it. A fresh session then takes a confined burst: up to
// √n edits, one per node, whose nodes and new F-targets all lie in the
// family's smallest component. That leaves the other components clean, so
// on every family with two or more components the burst must take the
// incremental path; both paths are pinned to the same contract.
func TestConformanceResolve(t *testing.T) {
	for _, fam := range conformanceFamilies {
		t.Run(fam.name, func(t *testing.T) {
			ins := Instance(fam.gen(11))
			n := len(ins.F)
			bursts := []int{1, intSqrt(n), n / 4}
			inc, err := NewIncremental(ins)
			if err != nil {
				t.Fatal(err)
			}
			edited := Instance{F: append([]int{}, ins.F...), B: append([]int{}, ins.B...)}
			rng := uint64(0x9e3779b97f4a7c15)
			next := func(mod int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(mod))
			}
			for _, burst := range bursts {
				if burst < 1 {
					continue
				}
				delta := Delta{Edits: make([]Edit, burst)}
				for i := range delta.Edits {
					node := next(n)
					e := Edit{Node: node}
					switch next(3) {
					case 0:
						fv := next(n)
						e.F = &fv
						edited.F[node] = fv
					case 1:
						bv := next(5)
						e.B = &bv
						edited.B[node] = bv
					default:
						fv, bv := next(n), next(5)
						e.F, e.B = &fv, &bv
						edited.F[node], edited.B[node] = fv, bv
					}
					delta.Edits[i] = e
				}
				res, err := Resolve(inc, delta)
				if err != nil {
					t.Fatalf("burst %d: %v", burst, err)
				}
				full, err := SolveWith(edited, Options{})
				if err != nil {
					t.Fatalf("burst %d: full solve: %v", burst, err)
				}
				if res.NumClasses != full.NumClasses {
					t.Fatalf("burst %d: %d classes, full solve found %d (mode %s)",
						burst, res.NumClasses, full.NumClasses, res.Resolve.Mode)
				}
				if !slices.Equal(res.Labels, full.Labels) {
					t.Fatalf("burst %d: %d labels differ from the full solve's %d (mode %s)",
						burst, len(res.Labels), len(full.Labels), res.Resolve.Mode)
				}
			}

			comp, comps := smallestComponent(ins.F)
			fresh, err := NewIncremental(ins)
			if err != nil {
				t.Fatal(err)
			}
			confined := Instance{F: append([]int{}, ins.F...), B: append([]int{}, ins.B...)}
			var delta Delta
			for i := range min(len(comp), intSqrt(n)) {
				// A partial shuffle picks the nodes without repeats.
				j := i + next(len(comp)-i)
				comp[i], comp[j] = comp[j], comp[i]
				node, fv, bv := comp[i], comp[next(len(comp))], next(5)
				e := Edit{Node: node}
				switch next(3) {
				case 0:
					e.F = &fv
					confined.F[node] = fv
				case 1:
					e.B = &bv
					confined.B[node] = bv
				default:
					e.F, e.B = &fv, &bv
					confined.F[node], confined.B[node] = fv, bv
				}
				delta.Edits = append(delta.Edits, e)
			}
			res, err := Resolve(fresh, delta)
			if err != nil {
				t.Fatalf("confined burst: %v", err)
			}
			full, err := SolveWith(confined, Options{})
			if err != nil {
				t.Fatalf("confined burst: full solve: %v", err)
			}
			if comps > 1 && res.Resolve.Mode != ResolveModeIncremental {
				t.Errorf("confined burst of %d edits on %d of %d components' nodes resolved %s (%s), want incremental",
					len(delta.Edits), len(comp), comps, res.Resolve.Mode, res.Resolve.Reason)
			}
			if res.NumClasses != full.NumClasses || !slices.Equal(res.Labels, full.Labels) {
				t.Fatalf("confined burst: %d classes, full solve found %d, or labels differ (mode %s)",
					res.NumClasses, full.NumClasses, res.Resolve.Mode)
			}
		})
	}
}

// TestIncrementalConcurrentUse reads a session's labels, class count and
// address from several goroutines while another applies deltas: a read
// renumbers the session's codes when a delta has left them stale, so
// reads write session state too, and run with -race this checks that the
// session's lock orders them. Every read must see a whole version.
func TestIncrementalConcurrentUse(t *testing.T) {
	w := workload.DistinctCycles(5, 8, 24, 3)
	ins := Instance{F: w.F, B: w.B}
	n := len(ins.F)
	inc, err := NewIncremental(ins)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	for range 4 {
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if labels, classes := inc.Labels(), inc.NumClasses(); len(labels) != n || classes < 1 || classes > n {
					errs <- fmt.Errorf("read %d labels and %d classes from a session of %d", len(labels), classes, n)
					return
				}
				inc.Digest()
			}
		}()
	}
	for d := range 64 {
		b := d % 5
		if _, err := inc.Apply(Delta{Edits: []Edit{{Node: (d * 37) % n, B: &b}}}); err != nil {
			t.Error(err)
			break
		}
		ins.B[(d*37)%n] = b
	}
	close(done)
	for range 4 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	full, err := SolveWith(ins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(inc.Labels(), full.Labels) || inc.NumClasses() != full.NumClasses {
		t.Fatal("labels after the concurrent reads differ from a full solve")
	}
}

// smallestComponent walks F from every node and returns the nodes of its
// smallest component, and how many components F has.
func smallestComponent(f []int) (nodes []int, comps int) {
	const unseen, onPath = -1, -2
	comp := make([]int, len(f))
	for x := range comp {
		comp[x] = unseen
	}
	var size []int
	for st := range f {
		var path []int
		x := st
		for comp[x] == unseen {
			comp[x] = onPath
			path = append(path, x)
			x = f[x]
		}
		c := comp[x]
		if c == onPath {
			c = len(size)
			size = append(size, 0)
		}
		for _, y := range path {
			comp[y] = c
		}
		size[c] += len(path)
	}
	small := 0
	for c := range size {
		if size[c] < size[small] {
			small = c
		}
	}
	for x, c := range comp {
		if c == small {
			nodes = append(nodes, x)
		}
	}
	return nodes, len(size)
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// TestConformanceSolverBatch drives the same differential check through
// the library's batch path — PlanBatch, then Solver.SolveBatchPlanned —
// for every algorithm, so every member solved on an arena of the shared
// pool is held to Moore. An invalid member rides in the middle of the
// batch and must fail alone at its position. Each batch runs twice, so
// the second pass reuses the first one's arenas.
func TestConformanceSolverBatch(t *testing.T) {
	var instances []Instance
	var names []string
	var refs []Result
	for _, fam := range conformanceFamilies {
		ins := Instance(fam.gen(7))
		ref, err := SolveWith(ins, Options{Algorithm: AlgorithmMoore})
		if err != nil {
			t.Fatalf("%s: moore reference: %v", fam.name, err)
		}
		instances, names, refs = append(instances, ins), append(names, fam.name), append(refs, ref)
	}
	bad := len(instances) / 2
	instances = slices.Insert(instances, bad, Instance{F: []int{5}, B: []int{0}})
	names = slices.Insert(names, bad, "invalid")
	refs = slices.Insert(refs, bad, Result{})
	for _, algo := range Algorithms() {
		t.Run(algo.String(), func(t *testing.T) {
			plan, err := PlanBatch(instances, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSolver(Options{Seed: 7})
			for pass := 0; pass < 2; pass++ {
				results, errs := s.SolveBatchPlanned(context.Background(), instances, plan)
				if len(results) != len(instances) || len(errs) != len(instances) {
					t.Fatalf("%d results and %d errors for %d members", len(results), len(errs), len(instances))
				}
				for i, res := range results {
					if i == bad {
						if errs[i] == nil || res.Labels != nil || res.Plan != nil {
							t.Errorf("pass %d: invalid member: err %v, result %+v", pass, errs[i], res)
						}
						continue
					}
					if errs[i] != nil {
						t.Errorf("pass %d %s: %v", pass, names[i], errs[i])
						continue
					}
					if len(res.Labels) != len(refs[i].Labels) || res.NumClasses != refs[i].NumClasses || res.Plan == nil || *res.Plan != plan {
						t.Errorf("pass %d %s: %d labels in %d classes (moore %d in %d), plan %v", pass, names[i],
							len(res.Labels), res.NumClasses, len(refs[i].Labels), refs[i].NumClasses, res.Plan)
						continue
					}
					for j := range res.Labels {
						if res.Labels[j] != refs[i].Labels[j] {
							t.Errorf("pass %d %s: labels[%d] = %d, moore says %d (first divergence)",
								pass, names[i], j, res.Labels[j], refs[i].Labels[j])
							break
						}
					}
				}
			}
		})
	}

	// An empty batch has nothing to plan, and executing one yields nothing.
	if _, err := PlanBatch(nil, Options{}); err == nil {
		t.Error("PlanBatch accepted an empty batch")
	}
	if res, errs := NewSolver(Options{}).SolveBatchPlanned(context.Background(), nil, Plan{Algorithm: AlgorithmLinear, Workers: 1}); len(res) != 0 || len(errs) != 0 {
		t.Errorf("empty batch: %d results, %d errors", len(res), len(errs))
	}
}
