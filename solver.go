package sfcp

import (
	"context"
	"fmt"
	"sync"

	"sfcp/internal/addr"
	"sfcp/internal/coarsest"
	"sfcp/internal/engine"
)

// Algorithms lists every solver in declaration order — the canonical
// enumeration for CLIs, servers and tests.
func Algorithms() []Algorithm {
	return engine.Algorithms()
}

// ParseAlgorithm maps a name (as printed by Algorithm.String) back to its
// Algorithm value.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("sfcp: unknown algorithm %q (want one of %s)", name, algorithmNames())
}

func algorithmNames() string {
	s := ""
	for i, a := range Algorithms() {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s
}

// Digest returns the instance's content address: 64 lowercase hex
// characters naming (F, B), suitable as a cache key. Two instances share
// a digest iff they have identical F and B. The address is the root of a
// two-level SHA-256 hash tree over fixed element ranges of F and of B
// (package internal/addr, DESIGN.md section 9), so a session
// (Incremental.Digest) keeps it current under edits at the cost of the
// ranges they touch. Every element is hashed as 8 bytes, invalid ones
// too: Digest runs before validation.
func (ins Instance) Digest() string {
	return addr.Of(ins.F, ins.B)
}

// Solver executes resolved plans with reusable scratch arenas: the
// linear solver's working set is recycled across calls, so a server
// solving many instances pays for an arena per concurrent solve, not per
// request. A Solver is safe for concurrent use by multiple goroutines.
type Solver struct {
	seed    uint64
	scratch sync.Pool // *coarsest.Scratch
}

// NewSolver returns a Solver that runs every solve with opts.Seed. It
// reads no other field of opts: the plan handed to each call carries the
// algorithm and the worker count.
func NewSolver(opts Options) *Solver {
	return &Solver{
		seed: opts.Seed,
		scratch: sync.Pool{New: func() any {
			return new(coarsest.Scratch)
		}},
	}
}

// SolvePlanned validates an instance and executes a previously resolved
// plan with the solver's seed and scratch arenas, without re-planning
// (see the package-level SolvePlanned, including its cancellation
// contract). A cancelled solve leaves the solver reusable.
func (s *Solver) SolvePlanned(ctx context.Context, ins Instance, plan Plan) (Result, error) {
	in := coarsest.Instance{F: ins.F, B: ins.B}
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	sc := s.scratch.Get().(*coarsest.Scratch)
	res, err := executePlan(ctx, in, plan, s.seed, sc)
	s.scratch.Put(sc)
	return res, err
}

// SolveBatchPlanned executes one previously resolved batch plan (see
// PlanBatch) over every instance, sequentially on the calling goroutine
// under a single shared scratch arena — the execution half of the
// coalescing fast path: N tiny solves pay one plan, one scratch checkout,
// and near-zero per-member allocation. Under a linear plan the valid
// members run as one pass, and each member's Result.Timings.Solve
// reports its size-proportional share of it (engine.ExecuteBatch).
// Results and errors are positional; an invalid member fails alone (its
// siblings still solve) and a nil error at position i means instances[i]
// solved.
func (s *Solver) SolveBatchPlanned(ctx context.Context, instances []Instance, plan Plan) ([]Result, []error) {
	v := getView(instances)
	sc := s.scratch.Get().(*coarsest.Scratch)
	sols, errs := engine.ExecuteBatch(ctx, *v, plan, s.seed, sc)
	s.scratch.Put(sc)
	putView(v)
	results := make([]Result, len(sols))
	for i, sol := range sols {
		if errs[i] == nil {
			results[i] = toResult(sol, &plan)
		}
	}
	return results, errs
}
