package engine

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"sfcp/internal/coarsest"
	"sfcp/internal/par"
	"sfcp/internal/pram"
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

// Probe sampling budgets. Sampling is by fixed stride — never randomized —
// so identical instances always produce identical features and plans.
const (
	probeLabelSamples = 256
	probeWalks        = 64
)

// Features are the cheap instance measurements every Auto plan records:
// O(probe budget) work, independent of instance size.
type Features struct {
	// N is the instance size.
	N int `json:"n"`
	// SampledLabels counts distinct initial-partition labels among up to
	// probeLabelSamples stride-sampled elements — a lower bound on |B|.
	SampledLabels int `json:"sampled_labels,omitempty"`
	// ShortCycleFrac is the fraction of stride-sampled walks that closed a
	// cycle within ~2 log2(n) steps: near 1.0 for short-cycle families
	// (the Section 3 regime), near 0 for trees and long random cycles.
	ShortCycleFrac float64 `json:"short_cycle_frac,omitempty"`
	// Probed reports whether the sampled probe ran; explicit algorithm
	// requests skip it and only record N.
	Probed bool `json:"probed,omitempty"`
}

// Probe computes the planner's features for a validated instance.
func Probe(in coarsest.Instance) Features {
	n := len(in.F)
	ft := Features{N: n, Probed: true}
	if n == 0 {
		return ft
	}

	stride := n / probeLabelSamples
	if stride < 1 {
		stride = 1
	}
	labels := make(map[int]struct{}, 8)
	for i, taken := 0, 0; i < n && taken < probeLabelSamples; i, taken = i+stride, taken+1 {
		labels[in.B[i]] = struct{}{}
	}
	ft.SampledLabels = len(labels)

	walks := probeWalks
	if walks > n {
		walks = n
	}
	wstride := n / walks
	if wstride < 1 {
		wstride = 1
	}
	maxSteps := 2*bits.Len(uint(n)) + 8
	closed := 0
	for s, done := 0, 0; done < walks; s, done = s+wstride, done+1 {
		if brentShortCycle(in.F, s, maxSteps) {
			closed++
		}
	}
	ft.ShortCycleFrac = float64(closed) / float64(walks)
	return ft
}

// brentShortCycle reports whether the walk from start closes a cycle
// within maxSteps applications of f, using Brent's power-of-two teleport
// (O(maxSteps) time, O(1) space — the probe runs on every Auto solve, so
// a quadratic visited-scan would eat the planning budget it guards).
func brentShortCycle(f []int, start, maxSteps int) bool {
	power, lam := 1, 1
	tortoise, hare := start, f[start]
	for step := 1; step < maxSteps; step++ {
		if tortoise == hare {
			return true
		}
		if power == lam {
			tortoise = hare
			power <<= 1
			lam = 0
		}
		hare = f[hare]
		lam++
	}
	return tortoise == hare
}

// Request is what a caller asks the engine for: an algorithm (possibly
// Auto), a host-goroutine budget (0 = NumCPU) and a simulator seed.
type Request struct {
	Algorithm Algorithm
	Workers   int
	Seed      uint64
}

// Plan is a resolved, explainable execution decision. Algorithm is always
// concrete (never Auto) and Workers is the exact goroutine count the
// parallel solvers will use.
type Plan struct {
	Algorithm Algorithm `json:"algorithm"`
	Workers   int       `json:"workers"`
	Reason    string    `json:"reason"`
	Features  Features  `json:"features"`
}

// Timings reports where a solve spent its time, stage by stage.
type Timings struct {
	// Plan covers feature probing and algorithm resolution.
	Plan time.Duration `json:"plan_ns"`
	// Solve covers the dispatched algorithm itself.
	Solve time.Duration `json:"solve_ns"`
}

// Outcome is Run's full result: the labels, the simulator counters for the
// PRAM algorithms (nil otherwise), the plan that produced them and the
// per-stage timings.
type Outcome struct {
	Labels  []int
	Stats   *pram.Stats
	Plan    Plan
	Timings Timings
}

// MakePlan resolves a request against a validated instance. Auto runs
// the probe and resolves to the sequential linear-time solver; explicit
// algorithm choices are honored as-is, with only the worker count
// resolved. Plans are deterministic in (instance, request).
func MakePlan(in coarsest.Instance, req Request) (Plan, error) {
	n := len(in.F)
	if req.Algorithm == Auto {
		return Plan{Algorithm: Linear, Workers: 1, Reason: autoReason, Features: Probe(in)}, nil
	}
	if _, ok := dispatch[req.Algorithm]; !ok {
		return Plan{}, fmt.Errorf("sfcp: unknown algorithm %v", req.Algorithm)
	}
	p := Plan{
		Algorithm: req.Algorithm,
		Workers:   1,
		Reason:    fmt.Sprintf("explicit %s request", req.Algorithm),
		Features:  Features{N: n},
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
// for one resolution instead of N probes. Auto resolves to one sequential
// linear pass per member under a shared scratch arena; explicit
// algorithms are honored as in MakePlan, with workers resolved against
// the largest member. Features.N reports the batch's total elements.
// Plans are deterministic in (instances, request).
func MakeBatchPlan(ins []coarsest.Instance, req Request) (Plan, error) {
	if len(ins) == 0 {
		return Plan{}, fmt.Errorf("sfcp: empty batch")
	}
	largest, totalN := ins[0], 0
	for _, in := range ins {
		totalN += len(in.F)
		if len(in.F) > len(largest.F) {
			largest = in
		}
	}
	if req.Algorithm == Auto {
		return Plan{Algorithm: Linear, Workers: 1, Reason: autoReason, Features: Features{N: totalN}}, nil
	}
	p, err := MakePlan(largest, req)
	if err != nil {
		return Plan{}, err
	}
	p.Reason = fmt.Sprintf("explicit %s request for coalesced batch of %d members (total n=%d)",
		req.Algorithm, len(ins), totalN)
	p.Features = Features{N: totalN}
	return p, nil
}

// Run is the engine's front door: probe, plan, dispatch, with per-stage
// timings. The instance must already be validated; sc may be nil.
func Run(ctx context.Context, in coarsest.Instance, req Request, sc *coarsest.Scratch) (Outcome, error) {
	t0 := time.Now()
	plan, err := MakePlan(in, req)
	planDur := time.Since(t0)
	if err != nil {
		return Outcome{}, err
	}
	t1 := time.Now()
	labels, stats, err := Execute(ctx, in, plan, req.Seed, sc)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Labels:  labels,
		Stats:   stats,
		Plan:    plan,
		Timings: Timings{Plan: planDur, Solve: time.Since(t1)},
	}, nil
}
