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
	"fmt"
	"time"

	"sfcp/internal/circ"
	"sfcp/internal/coarsest"
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
	return coarsest.Instance(ins).Validate()
}

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
	res, err := execute(context.Background(), ins, plan, opts.Seed, nil)
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
	return makePlan(opts)
}

// PlanBatch resolves one execution plan for a batch of instances: the
// batch is the planning unit, so N tiny instances share a single
// resolution. Auto resolves as in PlanWith; an explicit algorithm's
// reason names the members' count and total size. Instances are not
// validated here — batch execution (Solver.SolveBatchPlanned) validates
// and fails members individually.
func PlanBatch(instances []Instance, opts Options) (Plan, error) {
	if len(instances) == 0 {
		return Plan{}, fmt.Errorf("sfcp: empty batch")
	}
	p, err := makePlan(opts)
	if err != nil || opts.Algorithm == AlgorithmAuto {
		return p, err
	}
	totalN := 0
	for _, in := range instances {
		totalN += len(in.F)
	}
	p.Reason = fmt.Sprintf("explicit %s request for coalesced batch of %d members (total n=%d)",
		opts.Algorithm, len(instances), totalN)
	return p, nil
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
	if err := ins.Validate(); err != nil {
		return Result{}, err
	}
	return execute(ctx, ins, plan, opts.Seed, nil)
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
