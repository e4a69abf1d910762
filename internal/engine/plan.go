package engine

import (
	"fmt"

	"sfcp/internal/coarsest"
	"sfcp/internal/par"
)

// nativeParallelGrain is the elements per goroutine an explicit
// native-parallel request with an unstated worker budget is granted:
// spreading fewer than this across extra goroutines costs more in
// startup and barriers than the added parallelism returns.
const nativeParallelGrain = 1 << 14

// autoReason explains every Auto plan. native-parallel's pointer
// doubling does O(n log n) work against the linear solver's O(n), and
// no measured host has shown it winning, so Auto never picks it; it runs
// only when a caller asks for it by name.
const autoReason = "auto: sequential linear-time solver (native-parallel runs only on explicit request)"

// autoPlan is every Auto plan, for single instances and batches alike.
var autoPlan = Plan{Algorithm: Linear, Workers: 1, Reason: autoReason}

// Request is what a caller asks the engine for: an algorithm (possibly
// Auto) and a host-goroutine budget (0 = NumCPU).
type Request struct {
	Algorithm Algorithm
	Workers   int
}

// Plan is a resolved, explainable execution decision. Algorithm is always
// concrete (never Auto) and Workers is the exact goroutine count the
// parallel solvers will use.
type Plan struct {
	Algorithm Algorithm `json:"algorithm"`
	Workers   int       `json:"workers"`
	Reason    string    `json:"reason"`
}

// MakePlan resolves a request against a validated instance. Auto
// resolves to the sequential linear-time solver on one worker without
// reading the instance; explicit algorithm choices are honored as-is,
// with only the worker count resolved. Plans are deterministic in
// (instance size, request).
func MakePlan(in coarsest.Instance, req Request) (Plan, error) {
	if req.Algorithm == Auto {
		return autoPlan, nil
	}
	if _, ok := dispatch[req.Algorithm]; !ok {
		return Plan{}, fmt.Errorf("sfcp: unknown algorithm %v", req.Algorithm)
	}
	n := len(in.F)
	p := Plan{
		Algorithm: req.Algorithm,
		Workers:   1,
		Reason:    fmt.Sprintf("explicit %s request", req.Algorithm),
	}
	switch req.Algorithm {
	case NativeParallel:
		if req.Workers == 0 {
			// An unstated budget is scaled to the instance; an explicit
			// one is an instruction, not a hint.
			p.Workers = min(max(n/nativeParallelGrain, 1), par.Workers(0))
		} else {
			p.Workers = par.Workers(req.Workers)
		}
	case ParallelPRAM, DoublingHash, DoublingSort:
		p.Workers = par.Workers(req.Workers)
	}
	return p, nil
}

// MakeBatchPlan resolves one plan for a coalesced batch of instances: the
// batch — not each member — is the planning unit, so N tiny requests pay
// for one resolution instead of N. Auto resolves to one sequential
// linear pass per member under a shared scratch arena; explicit
// algorithms are honored as in MakePlan, with workers resolved against
// the largest member. Plans are deterministic in (member sizes, request).
func MakeBatchPlan(ins []coarsest.Instance, req Request) (Plan, error) {
	if len(ins) == 0 {
		return Plan{}, fmt.Errorf("sfcp: empty batch")
	}
	if req.Algorithm == Auto {
		return autoPlan, nil
	}
	largest, totalN := ins[0], 0
	for _, in := range ins {
		totalN += len(in.F)
		if len(in.F) > len(largest.F) {
			largest = in
		}
	}
	p, err := MakePlan(largest, req)
	if err != nil {
		return Plan{}, err
	}
	p.Reason = fmt.Sprintf("explicit %s request for coalesced batch of %d members (total n=%d)",
		req.Algorithm, len(ins), totalN)
	return p, nil
}
