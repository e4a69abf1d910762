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
// solvers (Moore, Hopcroft, linear-time), the prior parallel baselines, and
// a goroutine-parallel implementation are included; all return identical
// normalized labels.
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
// through deferred execution (a coalescing queue, an async job) use it to
// reject malformed input up front.
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
	// AlgorithmNativeParallel runs goroutines on real cores. Its pointer
	// doubling does O(n log n) work, so the planner never picks it; it
	// runs only when requested by name.
	AlgorithmNativeParallel = engine.NativeParallel
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

// Options configures SolveWith and NewSolver.
type Options struct {
	// Algorithm selects the solver (default AlgorithmAuto, resolved by
	// the planner; see Result.Plan).
	Algorithm Algorithm
	// Workers bounds host goroutines for the parallel solvers. 0 lets the
	// engine choose: a NumCPU budget, scaled down to the instance size for
	// native-parallel solves (PlanWith reports the exact count). Auto
	// plans always run the linear solver on one goroutine.
	Workers int
	// Seed drives the simulator's deterministic arbitrary-write choices.
	Seed uint64
	// Parallelism bounds how many batch members a Solver runs concurrently
	// in SolveBatch (0 = NumCPU). Ignored by SolveWith.
	Parallelism int
}

// Plan is the execution decision the engine resolved for a solve: the
// concrete algorithm (never AlgorithmAuto), the exact worker count, a
// human-readable reason, and the instance features the planner read.
type Plan = engine.Plan

// Features are the cheap instance measurements behind a Plan: size, a
// sampled initial-label count and a sampled cycle/tree structure probe.
type Features = engine.Features

// Timings reports a solve's per-stage wall clock: planning (feature probe
// plus algorithm resolution) and the dispatched solve itself.
type Timings = engine.Timings

// Result is the output of SolveWith.
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

// SolveWith computes the coarsest partition with the selected algorithm.
func SolveWith(ins Instance, opts Options) (Result, error) {
	return SolveWithContext(context.Background(), ins, opts)
}

// SolveWithContext is SolveWith with cooperative cancellation. The parallel
// solvers (native-parallel and the PRAM simulations) poll ctx between
// refinement rounds / simulated steps and return ctx.Err() promptly; the
// sequential solvers (moore, hopcroft, linear) check it only on entry and
// then run to completion.
func SolveWithContext(ctx context.Context, ins Instance, opts Options) (Result, error) {
	in := coarsest.Instance{F: ins.F, B: ins.B}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return solveValidated(ctx, in, opts, nil)
}

// PlanWith resolves the execution plan for an instance without solving it:
// the algorithm that would run (AlgorithmAuto resolved by the adaptive
// planner), the worker count, and the reason. Planning is deterministic —
// identical instances and options always yield identical plans.
func PlanWith(ins Instance, opts Options) (Plan, error) {
	in := coarsest.Instance{F: ins.F, B: ins.B}
	if err := in.Validate(); err != nil {
		return Plan{}, err
	}
	return engine.MakePlan(in, engine.Request{Algorithm: opts.Algorithm, Workers: opts.Workers, Seed: opts.Seed})
}

// PlanBatch resolves one execution plan for a coalesced batch of
// instances: the batch is the planning unit, so N tiny requests share a
// single resolution instead of paying N probes. Instances are not
// validated here — batch execution (Solver.SolveBatchPlanned) validates
// and fails members individually. Plan.Features.N reports the batch's
// total elements.
func PlanBatch(instances []Instance, opts Options) (Plan, error) {
	// The conversion view is recycled: batch planning happens once per
	// coalesced flush, and MakeBatchPlan only reads it (plans carry
	// derived features, never instance slices).
	ip, _ := planBatchPool.Get().(*[]coarsest.Instance)
	if ip == nil {
		ip = new([]coarsest.Instance)
	}
	ins := (*ip)[:0]
	for _, m := range instances {
		ins = append(ins, coarsest.Instance{F: m.F, B: m.B})
	}
	plan, err := engine.MakeBatchPlan(ins, engine.Request{Algorithm: opts.Algorithm, Workers: opts.Workers, Seed: opts.Seed})
	clear(ins)
	*ip = ins[:0]
	planBatchPool.Put(ip)
	return plan, err
}

// planBatchPool recycles PlanBatch's []coarsest.Instance conversion
// views across flushes.
var planBatchPool sync.Pool

// SolvePlanned executes a plan previously resolved by PlanWith (or
// Solver.Plan) for this instance, without re-probing or re-planning — the
// path for callers that need the plan before the solve (to pick a queue or
// a cache key) and must then execute exactly what was promised. Only
// opts.Seed is consulted; the algorithm and worker count come from the
// plan. Result.Timings.Plan is zero: planning happened at PlanWith time.
func SolvePlanned(ctx context.Context, ins Instance, plan Plan, opts Options) (Result, error) {
	in := coarsest.Instance{F: ins.F, B: ins.B}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	return executePlan(ctx, in, plan, opts.Seed, nil)
}

// executePlan dispatches a resolved plan through the engine and shapes the
// library Result.
func executePlan(ctx context.Context, in coarsest.Instance, plan Plan, seed uint64, sc *coarsest.Scratch) (Result, error) {
	start := time.Now()
	labels, stats, err := engine.Execute(ctx, in, plan, seed, sc)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Labels:     labels,
		NumClasses: coarsest.NumClasses(labels),
		Plan:       &plan,
		Timings:    Timings{Solve: time.Since(start)},
	}
	if stats != nil {
		res.Stats = fromPRAM(*stats)
	}
	return res, nil
}

// solveValidated hands a validated instance to the execution engine — the
// one place in the codebase an algorithm is chosen and dispatched. sc may
// be nil (only native-parallel solves use it).
func solveValidated(ctx context.Context, in coarsest.Instance, opts Options, sc *coarsest.Scratch) (Result, error) {
	out, err := engine.Run(ctx, in, engine.Request{Algorithm: opts.Algorithm, Workers: opts.Workers, Seed: opts.Seed}, sc)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Labels:     out.Labels,
		NumClasses: coarsest.NumClasses(out.Labels),
		Plan:       &out.Plan,
		Timings:    out.Timings,
	}
	if out.Stats != nil {
		res.Stats = fromPRAM(*out.Stats)
	}
	return res, nil
}

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
