package engine

import (
	"fmt"
	"runtime"

	"sfcp/internal/coarsest"
)

// autoReason explains every Auto plan.
const autoReason = "auto: sequential linear-time solver"

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

// MakePlan resolves a request. Auto resolves to the sequential
// linear-time solver on one worker; explicit algorithm choices are
// honored as-is, with only the worker count resolved: the simulator
// algorithms run on req.Workers goroutines, or NumCPU when it is 0 or
// less. Plans are deterministic in the request.
func MakePlan(req Request) (Plan, error) {
	if req.Algorithm == Auto {
		return autoPlan, nil
	}
	if _, ok := dispatch[req.Algorithm]; !ok {
		return Plan{}, fmt.Errorf("sfcp: unknown algorithm %v", req.Algorithm)
	}
	p := Plan{
		Algorithm: req.Algorithm,
		Workers:   1,
		Reason:    fmt.Sprintf("explicit %s request", req.Algorithm),
	}
	switch req.Algorithm {
	case ParallelPRAM, DoublingHash, DoublingSort:
		p.Workers = req.Workers
		if p.Workers <= 0 {
			p.Workers = runtime.NumCPU()
		}
	}
	return p, nil
}

// MakeBatchPlan resolves one plan for a coalesced batch of instances: the
// batch — not each member — is the planning unit, so N tiny requests pay
// for one resolution instead of N. Auto resolves to one sequential
// linear pass per member under a shared scratch arena; explicit
// algorithms are resolved as in MakePlan, and only the reason reads the
// members, to name their count and total size.
func MakeBatchPlan(ins []coarsest.Instance, req Request) (Plan, error) {
	if len(ins) == 0 {
		return Plan{}, fmt.Errorf("sfcp: empty batch")
	}
	p, err := MakePlan(req)
	if err != nil || req.Algorithm == Auto {
		return p, err
	}
	totalN := 0
	for _, in := range ins {
		totalN += len(in.F)
	}
	p.Reason = fmt.Sprintf("explicit %s request for coalesced batch of %d members (total n=%d)",
		req.Algorithm, len(ins), totalN)
	return p, nil
}
