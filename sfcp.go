// Package sfcp solves the single function coarsest partition problem and
// exposes the companion circular-string algorithms, reproducing
//
//	J.F. JáJá and K.W. Ryu, "An efficient parallel algorithm for the single
//	function coarsest partition problem", SPAA 1993 / Theoretical Computer
//	Science 129 (1994) 293–307.
//
// Given a function f on {0..n-1} and an initial partition B (a label per
// element), the coarsest partition Q refines B, is closed under f (each
// block maps into a block), and has as few blocks as possible. The problem
// is equivalent to minimizing a Moore machine with a one-letter alphabet.
//
// The headline algorithm runs in O(log n) time using O(n log log n)
// operations on an Arbitrary CRCW PRAM, which this library executes on a
// deterministic instrumented simulator (AlgorithmParallelPRAM). Sequential
// solvers (Moore, Hopcroft, linear-time) and the prior parallel baselines
// are included; all return identical normalized labels.
//
// The paper's subproblems of independent interest are exposed too: the
// minimal starting point of a circular string (Lemma 3.7), sorting
// variable-length strings (Lemma 3.8), and grouping equal-length strings
// into equivalence classes (Lemma 3.11).
package sfcp

import (
	"context"
	"sync"
	"time"

	"sfcp/internal/circ"
	"sfcp/internal/coarsest"
	"sfcp/internal/engine"
	"sfcp/internal/pram"
	"sfcp/internal/strsort"
)

// Instance is a single function coarsest partition problem: F[x] = f(x)
// with F[x] in [0, n), and B[x] >= 0 the initial-partition label of x.
type Instance struct {
	F []int
	B []int
}

// Validate checks the instance invariants (|F| == |B|, F values in range,
// B labels non-negative) without solving. Callers that route instances
// through deferred execution (an async job) use it to reject malformed
// input up front.
func (ins Instance) Validate() error {
	return coarsest.Instance{F: ins.F, B: ins.B}.Validate()
}

// Algorithm selects a solver. It aliases the execution engine's type, so
// the engine's planner and dispatch table are the single source of truth
// for what each value means and how it runs.
type Algorithm = engine.Algorithm

const (
	// AlgorithmAuto defers the choice to the planner, which resolves it
	// to the sequential linear-time solver for every instance and worker
	// budget. Result.Plan reports the resolved algorithm and why.
	AlgorithmAuto = engine.Auto
	// AlgorithmMoore is naive iterative refinement (O(n^2) worst case).
	AlgorithmMoore = engine.Moore
	// AlgorithmHopcroft is partition refinement, O(n log n).
	AlgorithmHopcroft = engine.Hopcroft
	// AlgorithmLinear is the sequential linear-time cycle/tree solution.
	AlgorithmLinear = engine.Linear
	// AlgorithmParallelPRAM is the paper's algorithm on the instrumented
	// CRCW PRAM simulator (Theorem 5.1); Result.Stats reports its
	// parallel rounds and operations.
	AlgorithmParallelPRAM = engine.ParallelPRAM
	// AlgorithmDoublingHash is the O(n log n)-work parallel baseline
	// (Galley–Iliopoulos cost shape) on the simulator.
	AlgorithmDoublingHash = engine.DoublingHash
	// AlgorithmDoublingSort is the O(n log^2 n)-work parallel baseline
	// (Srikant cost shape) on the simulator.
	AlgorithmDoublingSort = engine.DoublingSort
)

// Stats reports the complexity counters of a simulated PRAM execution.
type Stats struct {
	// Rounds is the parallel time (number of synchronous steps).
	Rounds int64
	// Work is the operation count (processor activations plus charges).
	Work int64
	// MaxProcs is the largest processor count used in any single step.
	MaxProcs int64
	// Reads, Writes and Cells count shared-memory traffic and footprint.
	Reads, Writes, Cells int64
}

func fromPRAM(s pram.Stats) *Stats {
	return &Stats{Rounds: s.Rounds, Work: s.Work, MaxProcs: s.MaxProcs,
		Reads: s.Reads, Writes: s.Writes, Cells: s.Cells}
}

// Options configures planning: PlanWith, PlanBatch and SolveWith.
// SolvePlanned and NewSolver read only Seed, since a plan carries the
// algorithm and the worker count.
type Options struct {
	// Algorithm selects the solver (default AlgorithmAuto, resolved by
	// the planner; see Result.Plan).
	Algorithm Algorithm
	// Workers bounds host goroutines for the PRAM simulations; 0 means
	// NumCPU. The sequential solvers, Auto's linear one included, run on
	// one goroutine (PlanWith reports the exact count).
	Workers int
	// Seed drives the simulator's deterministic arbitrary-write choices.
	Seed uint64
}

// Plan is the execution decision the engine resolved for a solve: the
// concrete algorithm (never AlgorithmAuto), the exact worker count and a
// human-readable reason.
type Plan = engine.Plan

// Timings reports a solve's per-stage wall clock.
type Timings struct {
	// Plan covers validation and algorithm resolution (PlanWith); it is
	// zero when the plan was resolved before the solve was asked for.
	Plan time.Duration `json:"plan_ns"`
	// Solve covers the dispatched algorithm itself.
	Solve time.Duration `json:"solve_ns"`
}

// Result is the output of a solve.
type Result struct {
	// Labels assigns each element its Q-block, dense in [0, NumClasses)
	// and normalized by first occurrence.
	Labels []int
	// NumClasses is the number of blocks of Q.
	NumClasses int
	// Stats holds simulator counters for the PRAM algorithms, nil
	// otherwise.
	Stats *Stats
	// Plan is the resolved execution plan — with AlgorithmAuto this is how
	// callers learn which solver actually ran and why.
	Plan *Plan
	// Resolve explains how a delta was applied (incremental vs full
	// fallback, dirty-set sizes); set only by Resolve, nil for plain
	// solves.
	Resolve *ResolveInfo
	// Timings is the per-stage wall clock of this solve.
	Timings Timings
}

// Solve computes the coarsest partition of (f, b) with the default solver
// and returns the dense Q-labels.
func Solve(f, b []int) ([]int, error) {
	res, err := SolveWith(Instance{F: f, B: b}, Options{})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// SolveWith computes the coarsest partition with the selected algorithm:
// PlanWith, then the execution SolvePlanned runs. Result.Timings reports
// both stages. To cancel a solve, plan it with PlanWith and pass a
// context to SolvePlanned.
func SolveWith(ins Instance, opts Options) (Result, error) {
	start := time.Now()
	plan, err := PlanWith(ins, opts)
	if err != nil {
		return Result{}, err
	}
	planDur := time.Since(start)
	res, err := executePlan(context.Background(), coarsest.Instance{F: ins.F, B: ins.B}, plan, opts.Seed, nil)
	if err != nil {
		return Result{}, err
	}
	res.Timings.Plan = planDur
	return res, nil
}

// PlanWith validates an instance and resolves its execution plan without
// solving it: the algorithm that would run (AlgorithmAuto resolves to
// AlgorithmLinear), the worker count, and the reason. The plan depends
// on opts alone, not on the instance, and allocates nothing for
// AlgorithmAuto.
func PlanWith(ins Instance, opts Options) (Plan, error) {
	if err := ins.Validate(); err != nil {
		return Plan{}, err
	}
	return engine.MakePlan(engine.Request{Algorithm: opts.Algorithm, Workers: opts.Workers})
}

// PlanBatch resolves one execution plan for a batch of instances: the
// batch is the planning unit, so N tiny instances share a single
// resolution. Instances are not validated here — batch execution
// (Solver.SolveBatchPlanned) validates and fails members individually.
func PlanBatch(instances []Instance, opts Options) (Plan, error) {
	v := getView(instances)
	defer putView(v)
	return engine.MakeBatchPlan(*v, engine.Request{Algorithm: opts.Algorithm, Workers: opts.Workers})
}

// SolvePlanned validates an instance and executes a plan previously
// resolved for it by PlanWith, without re-planning — the path for callers
// that need the plan before the solve (to pick a queue or a cache key)
// and must then execute exactly what was promised. Only opts.Seed is
// consulted; the algorithm and worker count come from the plan.
// Result.Timings.Plan is zero: planning happened at PlanWith time.
//
// The PRAM simulations poll ctx between simulated steps and return
// ctx.Err() within one step of a cancellation; the sequential solvers
// (moore, hopcroft, linear) check it only on entry and then run to
// completion.
func SolvePlanned(ctx context.Context, ins Instance, plan Plan, opts Options) (Result, error) {
	in := coarsest.Instance{F: ins.F, B: ins.B}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return executePlan(ctx, in, plan, opts.Seed, nil)
}

// executePlan dispatches a resolved plan for a validated instance through
// the engine and shapes the library Result. sc may be nil.
func executePlan(ctx context.Context, in coarsest.Instance, plan Plan, seed uint64, sc *coarsest.Scratch) (Result, error) {
	sol, err := engine.Execute(ctx, in, plan, seed, sc)
	if err != nil {
		return Result{}, err
	}
	return toResult(sol, &plan), nil
}

// toResult shapes one engine solution as a library Result.
func toResult(sol engine.Solution, plan *Plan) Result {
	res := Result{
		Labels:     sol.Labels,
		NumClasses: sol.NumClasses,
		Plan:       plan,
		Timings:    Timings{Solve: sol.Solve},
	}
	if sol.Stats != nil {
		res.Stats = fromPRAM(*sol.Stats)
	}
	return res
}

// getView converts public instances to the engine's form in a recycled
// slice: batch planning and execution each take one per batch, and the
// engine only reads the view (plans and solutions never hold it).
func getView(instances []Instance) *[]coarsest.Instance {
	v, _ := viewPool.Get().(*[]coarsest.Instance)
	if v == nil {
		v = new([]coarsest.Instance)
	}
	for _, m := range instances {
		*v = append(*v, coarsest.Instance{F: m.F, B: m.B})
	}
	return v
}

// putView clears a view, so it pins no instance, and recycles it.
func putView(v *[]coarsest.Instance) {
	clear(*v)
	*v = (*v)[:0]
	viewPool.Put(v)
}

var viewPool sync.Pool

// MinimalRotation returns the index at which the lexicographically least
// rotation of the circular string s starts (its minimal starting point),
// computed sequentially in O(n) time. Returns -1 for an empty string; among
// equivalent minimal rotations it returns the smallest index.
func MinimalRotation(s []int) int { return circ.BoothMSP(s) }

// MinimalRotationPRAM computes the minimal starting point with the paper's
// parallel algorithm (Lemma 3.7: O(log n) time, O(n log log n) operations)
// on the simulator and reports the measured complexity. Symbols must be
// non-negative.
func MinimalRotationPRAM(s []int) (int, Stats) {
	m := pram.New(pram.ArbitraryCRCW)
	c := m.NewArrayFromInts(s)
	m.ResetStats()
	idx := circ.MSPPRAM(m, c, circ.Options{})
	return idx, *fromPRAM(m.Stats())
}

// CanonicalRotation returns the lexicographically least rotation of s,
// the canonical form of the circular string (e.g. for necklace or ring
// canonicalization).
func CanonicalRotation(s []int) []int { return circ.Canonical(s) }

// SmallestRepeatingPrefix returns the length of the shortest prefix P of s
// with s = P^k; for a primitive string it returns len(s).
func SmallestRepeatingPrefix(s []int) int { return circ.SmallestRepeatingPrefix(s) }

// IsRotationOf reports whether two circular strings are cyclic shifts of
// each other.
func IsRotationOf(a, b []int) bool { return circ.IsRotationOf(a, b) }

// SortStrings lexicographically sorts variable-length integer strings and
// returns the stable permutation (sequential baseline).
func SortStrings(strs [][]int) []int { return strsort.HostSort(strs) }

// SortStringsPRAM sorts the strings with the paper's parallel algorithm
// (Lemma 3.8) on the simulator, returning the stable permutation and the
// measured complexity. Symbols must be non-negative.
func SortStringsPRAM(strs [][]int) ([]int, Stats) {
	m := pram.New(pram.ArbitraryCRCW)
	m.ResetStats()
	perm := strsort.SortPRAM(m, strs, strsort.Options{})
	return perm, *fromPRAM(m.Stats())
}

// SamePartition reports whether two label slices induce the same partition
// (i.e. they are equal up to renaming).
func SamePartition(a, b []int) bool { return coarsest.SamePartition(a, b) }

// NumClasses returns the number of distinct labels in a labeling.
func NumClasses(labels []int) int { return coarsest.NumClasses(labels) }
