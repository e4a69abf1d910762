// Package engine is the unified execution layer of the library: the one
// place an Algorithm is chosen and the one place it is invoked.
//
// A solve has two stages, planning and execution:
//
//  1. MakePlan (MakeBatchPlan for a batch) resolves a request to an
//     explainable Plan{Algorithm, Workers, Reason}. Auto resolves to the
//     sequential linear-time solver on one worker; explicit algorithms
//     keep their name and only get a worker count. No plan reads an
//     instance.
//  2. Execute (ExecuteBatch for a batch) dispatches a plan through the
//     single dispatch table mapping each Algorithm to its
//     internal/coarsest entry point.
//
// The library reaches both stages one way: sfcp.PlanWith or
// sfcp.PlanBatch plan, and sfcp.SolvePlanned, Solver.SolvePlanned or
// Solver.SolveBatchPlanned execute; sfcp.Solve and sfcp.SolveWith are
// PlanWith followed by the same execution. Delta re-solves have no
// planner: ResolveDelta applies every delta one way, and the session's
// valve alone decides when to re-found it.
//
// Plans are deterministic: identical requests yield identical plans.
package engine

import (
	"context"
	"fmt"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/pram"
)

// Algorithm selects a solver. The zero value Auto defers the choice to the
// planner, which resolves it to Linear.
type Algorithm uint8

// The solver catalogue, in canonical presentation order.
const (
	// Auto lets the planner pick; it resolves to Linear.
	Auto Algorithm = iota
	// Moore is naive iterative refinement (O(n^2) worst case).
	Moore
	// Hopcroft is partition refinement, O(n log n).
	Hopcroft
	// Linear is the sequential linear-time cycle/tree solution.
	Linear
	// ParallelPRAM is the paper's algorithm on the instrumented CRCW PRAM
	// simulator (Theorem 5.1).
	ParallelPRAM
	// DoublingHash is the O(n log n)-work parallel baseline on the simulator.
	DoublingHash
	// DoublingSort is the O(n log^2 n)-work parallel baseline on the
	// simulator.
	DoublingSort
)

// Algorithms lists every solver in declaration order — the canonical
// enumeration for CLIs, servers and tests.
func Algorithms() []Algorithm {
	return []Algorithm{
		Auto, Moore, Hopcroft, Linear,
		ParallelPRAM, DoublingHash, DoublingSort,
	}
}

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Moore:
		return "moore"
	case Hopcroft:
		return "hopcroft"
	case Linear:
		return "linear"
	case ParallelPRAM:
		return "parallel-pram"
	case DoublingHash:
		return "doubling-hash"
	case DoublingSort:
		return "doubling-sort"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// MarshalText encodes the algorithm as its name, so JSON bodies carry
// "linear" rather than an opaque enum ordinal.
func (a Algorithm) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses an algorithm name (the inverse of MarshalText).
func (a *Algorithm) UnmarshalText(text []byte) error {
	for _, cand := range Algorithms() {
		if cand.String() == string(text) {
			*a = cand
			return nil
		}
	}
	return fmt.Errorf("unknown algorithm %q", text)
}

// entry executes one concrete algorithm on a validated instance and
// returns its labels, class count and simulator counters; Execute times
// it. The dispatch table below is the only mapping from Algorithm values
// to internal/coarsest entry points in the codebase — adding a solver
// means adding one constant and one row here.
type entry func(ctx context.Context, in coarsest.Instance, plan Plan, seed uint64, sc *coarsest.Scratch) (Solution, error)

var dispatch = map[Algorithm]entry{
	Moore: func(_ context.Context, in coarsest.Instance, _ Plan, _ uint64, _ *coarsest.Scratch) (Solution, error) {
		return counted(coarsest.Moore(in), nil), nil
	},
	Hopcroft: func(_ context.Context, in coarsest.Instance, _ Plan, _ uint64, _ *coarsest.Scratch) (Solution, error) {
		return counted(coarsest.Hopcroft(in), nil), nil
	},
	Linear: func(_ context.Context, in coarsest.Instance, _ Plan, _ uint64, sc *coarsest.Scratch) (Solution, error) {
		labels, classes := coarsest.LinearSequentialScratch(in, sc)
		return Solution{Labels: labels, NumClasses: classes}, nil
	},
	ParallelPRAM: func(ctx context.Context, in coarsest.Instance, plan Plan, seed uint64, _ *coarsest.Scratch) (Solution, error) {
		res, err := coarsest.ParallelPRAMContext(ctx, in, coarsest.ParallelOptions{Workers: plan.Workers, Seed: seed})
		if err != nil {
			return Solution{}, err
		}
		return counted(res.Labels, &res.Stats), nil
	},
	DoublingHash: func(ctx context.Context, in coarsest.Instance, plan Plan, seed uint64, _ *coarsest.Scratch) (Solution, error) {
		res, err := coarsest.DoublingHashPRAMContext(ctx, in, coarsest.ParallelOptions{Workers: plan.Workers, Seed: seed})
		if err != nil {
			return Solution{}, err
		}
		return counted(res.Labels, &res.Stats), nil
	},
	DoublingSort: func(ctx context.Context, in coarsest.Instance, plan Plan, seed uint64, _ *coarsest.Scratch) (Solution, error) {
		res, err := coarsest.DoublingSortPRAMContext(ctx, in, coarsest.ParallelOptions{Workers: plan.Workers, Seed: seed})
		if err != nil {
			return Solution{}, err
		}
		return counted(res.Labels, &res.Stats), nil
	},
}

// counted is the Solution of a solver that does not report its class
// count: one NumClasses pass over the labels.
func counted(labels []int, stats *pram.Stats) Solution {
	return Solution{Labels: labels, NumClasses: coarsest.NumClasses(labels), Stats: stats}
}

// Solution is what executing a plan produced for one instance: its
// labels, their class count, the simulator counters for the PRAM
// algorithms (nil otherwise) and the solve's wall clock.
type Solution struct {
	Labels     []int
	NumClasses int
	Stats      *pram.Stats
	Solve      time.Duration
}

// Execute runs a resolved plan on a validated instance. plan.Algorithm must
// be concrete (MakePlan never returns Auto); sc may be nil — the linear
// solver uses it, the rest ignore it.
func Execute(ctx context.Context, in coarsest.Instance, plan Plan, seed uint64, sc *coarsest.Scratch) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	run, ok := dispatch[plan.Algorithm]
	if !ok {
		return Solution{}, fmt.Errorf("sfcp: no solver for algorithm %v", plan.Algorithm)
	}
	start := time.Now()
	sol, err := run(ctx, in, plan, seed, sc)
	if err != nil {
		return Solution{}, err
	}
	sol.Solve = time.Since(start)
	return sol, nil
}

// ExecuteBatch runs one resolved plan (MakeBatchPlan) over every member on
// the calling goroutine under one scratch arena; sc may be nil. Unlike
// Execute it validates each member, and an invalid member fails alone at
// its position. Solutions and errors are positional: a nil error at
// position i means ins[i] solved.
//
// Under a linear plan the valid members run back-to-back through
// coarsest.LinearSequentialBatch, one arena and one label slab for the
// whole pass, and each member's Solve reports its size-proportional share
// of the pass; a context cancelled before the pass fails every valid
// member. Any other plan runs each valid member through Execute in turn.
func ExecuteBatch(ctx context.Context, ins []coarsest.Instance, plan Plan, seed uint64, sc *coarsest.Scratch) ([]Solution, []error) {
	sols := make([]Solution, len(ins))
	errs := make([]error, len(ins))
	totalN, invalid := 0, 0
	for i, in := range ins {
		if errs[i] = in.Validate(); errs[i] != nil {
			invalid++
			continue
		}
		totalN += len(in.F)
	}
	if plan.Algorithm != Linear {
		for i, in := range ins {
			if errs[i] == nil {
				sols[i], errs[i] = Execute(ctx, in, plan, seed, sc)
			}
		}
		return sols, errs
	}
	if err := ctx.Err(); err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return sols, errs
	}
	members := ins
	if invalid > 0 {
		members = make([]coarsest.Instance, 0, len(ins)-invalid)
		for i, in := range ins {
			if errs[i] == nil {
				members = append(members, in)
			}
		}
	}
	start := time.Now()
	labels, classes := coarsest.LinearSequentialBatch(members, sc)
	elapsed := time.Since(start)
	j := 0
	for i := range ins {
		if errs[i] != nil {
			continue
		}
		share := elapsed
		if totalN > 0 {
			share = elapsed * time.Duration(len(members[j].F)) / time.Duration(totalN)
		}
		sols[i] = Solution{Labels: labels[j], NumClasses: classes[j], Solve: share}
		j++
	}
	return sols, errs
}
