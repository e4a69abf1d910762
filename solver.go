package sfcp

import (
	"context"
	"sync"

	"sfcp/internal/addr"
	"sfcp/internal/coarsest"
)

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
	if err := ins.Validate(); err != nil {
		return Result{}, err
	}
	sc := s.scratch.Get().(*coarsest.Scratch)
	res, err := execute(ctx, ins, plan, s.seed, sc)
	s.scratch.Put(sc)
	return res, err
}

// SolveBatchPlanned executes one previously resolved batch plan (see
// PlanBatch) over every instance, sequentially on the calling goroutine
// under a single shared scratch arena: N tiny solves pay one plan, one
// scratch checkout, and near-zero per-member allocation. Under a linear
// plan the valid members run as one pass, and each member's
// Result.Timings.Solve reports its size-proportional share of it.
// Results and errors are positional; an invalid member fails alone (its
// siblings still solve) and a nil error at position i means instances[i]
// solved.
func (s *Solver) SolveBatchPlanned(ctx context.Context, instances []Instance, plan Plan) ([]Result, []error) {
	sc := s.scratch.Get().(*coarsest.Scratch)
	results, errs := executeBatch(ctx, instances, plan, s.seed, sc)
	s.scratch.Put(sc)
	return results, errs
}
