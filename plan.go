package sfcp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"sfcp/internal/coarsest"
)

// Algorithm selects a solver. The zero value AlgorithmAuto defers the
// choice to the planner.
type Algorithm uint8

// The solver catalogue, in canonical presentation order.
const (
	// AlgorithmAuto defers the choice to the planner, which resolves it
	// to the sequential linear-time solver for every instance and worker
	// budget. Result.Plan reports the resolved algorithm and why.
	AlgorithmAuto Algorithm = iota
	// AlgorithmMoore is naive iterative refinement (O(n^2) worst case).
	AlgorithmMoore
	// AlgorithmHopcroft is partition refinement, O(n log n).
	AlgorithmHopcroft
	// AlgorithmLinear is the sequential linear-time cycle/tree solution.
	AlgorithmLinear
	// AlgorithmParallelPRAM is the paper's algorithm on the instrumented
	// CRCW PRAM simulator (Theorem 5.1); Result.Stats reports its
	// parallel rounds and operations.
	AlgorithmParallelPRAM
	// AlgorithmDoublingHash is the O(n log n)-work parallel baseline
	// (Galley–Iliopoulos cost shape) on the simulator.
	AlgorithmDoublingHash
	// AlgorithmDoublingSort is the O(n log^2 n)-work parallel baseline
	// (Srikant cost shape) on the simulator.
	AlgorithmDoublingSort
)

// algorithmNames holds each Algorithm's name, indexed by its value.
var algorithmNames = [...]string{
	"auto", "moore", "hopcroft", "linear",
	"parallel-pram", "doubling-hash", "doubling-sort",
}

// Algorithms lists every solver in declaration order — the canonical
// enumeration for CLIs, servers and tests.
func Algorithms() []Algorithm {
	all := make([]Algorithm, len(algorithmNames))
	for i := range all {
		all[i] = Algorithm(i)
	}
	return all
}

// String returns the algorithm name.
func (a Algorithm) String() string {
	if int(a) < len(algorithmNames) {
		return algorithmNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// ParseAlgorithm maps a name (as printed by Algorithm.String) back to its
// Algorithm value.
func ParseAlgorithm(name string) (Algorithm, error) {
	if i := slices.Index(algorithmNames[:], name); i >= 0 {
		return Algorithm(i), nil
	}
	return 0, fmt.Errorf("sfcp: unknown algorithm %q (want one of %s)", name, strings.Join(algorithmNames[:], ", "))
}

// MarshalText encodes the algorithm as its name, so JSON bodies carry
// "linear" rather than an opaque enum ordinal.
func (a Algorithm) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses an algorithm name (the inverse of MarshalText).
func (a *Algorithm) UnmarshalText(text []byte) error {
	v, err := ParseAlgorithm(string(text))
	if err == nil {
		*a = v
	}
	return err
}

// Plan is a resolved, explainable execution decision: the concrete
// algorithm (never AlgorithmAuto), the exact goroutine count the
// simulator solvers will use, and a human-readable reason.
type Plan struct {
	Algorithm Algorithm `json:"algorithm"`
	Workers   int       `json:"workers"`
	Reason    string    `json:"reason"`
}

// autoPlan is every Auto plan, for single instances and batches alike.
var autoPlan = Plan{Algorithm: AlgorithmLinear, Workers: 1, Reason: "auto: sequential linear-time solver"}

// makePlan resolves the options to a plan; it reads no instance, so
// identical options yield identical plans. Auto resolves to the
// sequential linear-time solver on one worker. An explicit algorithm is
// honored as-is with only its worker count resolved: the simulator
// algorithms run on opts.Workers goroutines, or NumCPU when it is 0 or
// less, and the sequential ones on one.
func makePlan(opts Options) (Plan, error) {
	if opts.Algorithm == AlgorithmAuto {
		return autoPlan, nil
	}
	if _, ok := dispatch[opts.Algorithm]; !ok {
		return Plan{}, fmt.Errorf("sfcp: unknown algorithm %v", opts.Algorithm)
	}
	p := Plan{
		Algorithm: opts.Algorithm,
		Workers:   1,
		Reason:    fmt.Sprintf("explicit %s request", opts.Algorithm),
	}
	switch opts.Algorithm {
	case AlgorithmParallelPRAM, AlgorithmDoublingHash, AlgorithmDoublingSort:
		p.Workers = opts.Workers
		if p.Workers <= 0 {
			p.Workers = runtime.NumCPU()
		}
	}
	return p, nil
}

// solveFunc runs one concrete algorithm on a validated instance and
// returns its labels, class count and simulator counters; execute times
// it. po carries the plan's workers and the seed to the simulators.
type solveFunc func(ctx context.Context, in coarsest.Instance, po coarsest.ParallelOptions) (Result, error)

// arenas is the process's one pool of linear-solver arenas: every linear
// solve the library runs takes its arena here, so a process holds an
// arena per concurrent linear solve, not one per call. Each solve
// allocates its labels afresh, so no Result aliases a pooled arena.
var arenas = sync.Pool{New: func() any { return new(coarsest.Scratch) }}

// dispatch is the only mapping from Algorithm values to internal/coarsest
// entry points in the codebase (sfcpvet's enginedispatch analyzer holds
// every other package to it): adding a solver means adding one constant,
// its name and one row here.
var dispatch = map[Algorithm]solveFunc{
	AlgorithmMoore: func(_ context.Context, in coarsest.Instance, _ coarsest.ParallelOptions) (Result, error) {
		return counted(coarsest.Moore(in)), nil
	},
	AlgorithmHopcroft: func(_ context.Context, in coarsest.Instance, _ coarsest.ParallelOptions) (Result, error) {
		return counted(coarsest.Hopcroft(in)), nil
	},
	AlgorithmLinear: func(_ context.Context, in coarsest.Instance, _ coarsest.ParallelOptions) (Result, error) {
		sc := arenas.Get().(*coarsest.Scratch)
		labels, classes := coarsest.LinearSequentialScratch(in, sc)
		arenas.Put(sc)
		return Result{Labels: labels, NumClasses: classes}, nil
	},
	AlgorithmParallelPRAM: func(ctx context.Context, in coarsest.Instance, po coarsest.ParallelOptions) (Result, error) {
		return simulated(coarsest.ParallelPRAMContext(ctx, in, po))
	},
	AlgorithmDoublingHash: func(ctx context.Context, in coarsest.Instance, po coarsest.ParallelOptions) (Result, error) {
		return simulated(coarsest.DoublingHashPRAMContext(ctx, in, po))
	},
	AlgorithmDoublingSort: func(ctx context.Context, in coarsest.Instance, po coarsest.ParallelOptions) (Result, error) {
		return simulated(coarsest.DoublingSortPRAMContext(ctx, in, po))
	},
}

// counted is the Result of a solver that does not report its class
// count: one NumClasses pass over the labels.
func counted(labels []int) Result {
	return Result{Labels: labels, NumClasses: coarsest.NumClasses(labels)}
}

// simulated shapes a PRAM simulation's outcome, counters included.
func simulated(res coarsest.ParallelResult, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	out := counted(res.Labels)
	out.Stats = fromPRAM(res.Stats)
	return out, nil
}

// execute runs a resolved plan on a validated instance through the
// dispatch table and shapes its Result. plan.Algorithm must be concrete
// (no plan is Auto).
func execute(ctx context.Context, ins Instance, plan Plan, seed uint64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	run, ok := dispatch[plan.Algorithm]
	if !ok {
		return Result{}, fmt.Errorf("sfcp: no solver for algorithm %v", plan.Algorithm)
	}
	start := time.Now()
	res, err := run(ctx, coarsest.Instance(ins), coarsest.ParallelOptions{Workers: plan.Workers, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	res.Plan = &plan
	res.Timings.Solve = time.Since(start)
	return res, nil
}
