package sfcp

import (
	"context"

	"sfcp/internal/addr"
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

// Solver executes resolved batch plans with one seed. Like every other
// solve, its members take the linear solver's arenas from the
// process-wide pool behind the dispatch table. A Solver is safe for
// concurrent use by multiple goroutines.
type Solver struct {
	seed uint64
}

// NewSolver returns a Solver that runs every solve with opts.Seed. It
// reads no other field of opts: the plan handed to each call carries the
// algorithm and the worker count.
func NewSolver(opts Options) *Solver {
	return &Solver{seed: opts.Seed}
}

// SolveBatchPlanned runs SolvePlanned with the solver's seed on every
// instance in turn, on the calling goroutine, under one previously
// resolved plan (see PlanBatch). Each member's Result.Timings.Solve is
// its own. Results and errors are positional; an invalid member fails
// alone (its siblings still solve) and a nil error at position i means
// instances[i] solved.
func (s *Solver) SolveBatchPlanned(ctx context.Context, instances []Instance, plan Plan) ([]Result, []error) {
	results := make([]Result, len(instances))
	errs := make([]error, len(instances))
	for i, in := range instances {
		results[i], errs[i] = SolvePlanned(ctx, in, plan, Options{Seed: s.seed})
	}
	return results, errs
}
