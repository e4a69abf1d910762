package sfcp_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"sfcp"
	"sfcp/internal/workload"
)

// TestSolveLabelsNeverAliasScratch is the regression guard for the
// scratch-arena contract: the labels a solve returns must be freshly
// allocated, never a view into a pooled coarsest.Scratch — otherwise the
// next solve that checks the same arena out of the process-wide pool
// would overwrite a result a previous caller still holds. SolveWith,
// SolvePlanned and Solver.SolveBatchPlanned all share that pool, so the
// test keeps linear results from each, checked against Moore's labels,
// then hammers all three from many goroutines (so arenas are Put, re-Got
// and rewritten concurrently) and checks no kept result ever changes.
// Run under -race this also catches witnessed writes into retained
// memory.
func TestSolveLabelsNeverAliasScratch(t *testing.T) {
	ctx := context.Background()
	held := wl(workload.RandomFunction(1, 3000, 4))
	// Different sizes and shapes force the reused arena buffers through
	// regrowth and full rewrites.
	others := []sfcp.Instance{
		wl(workload.RandomFunction(2, 5000, 3)),
		wl(workload.CycleFamily(3, 4, 100, 7)),
		wl(workload.Broom(4, 2000, 50, 6)),
		wl(workload.Star(5, 800, 2)),
	}
	opts := sfcp.Options{Algorithm: sfcp.AlgorithmLinear}
	s := sfcp.NewSolver(opts)
	// each runs a one-instance solve over a batch, member by member.
	each := func(solve func(sfcp.Instance) (sfcp.Result, error)) func([]sfcp.Instance) ([][]int, error) {
		return func(batch []sfcp.Instance) ([][]int, error) {
			var out [][]int
			for _, ins := range batch {
				res, err := solve(ins)
				if err != nil {
					return nil, err
				}
				out = append(out, res.Labels)
			}
			return out, nil
		}
	}
	// paths solves a batch through each library entry point and returns
	// every member's labels.
	paths := []func(batch []sfcp.Instance) ([][]int, error){
		each(func(ins sfcp.Instance) (sfcp.Result, error) { return sfcp.SolveWith(ins, opts) }),
		each(func(ins sfcp.Instance) (sfcp.Result, error) {
			p, err := sfcp.PlanWith(ins, opts)
			if err != nil {
				return sfcp.Result{}, err
			}
			return sfcp.SolvePlanned(ctx, ins, p, opts)
		}),
		func(batch []sfcp.Instance) ([][]int, error) {
			p, err := sfcp.PlanBatch(batch, opts)
			if err != nil {
				return nil, err
			}
			results, errs := s.SolveBatchPlanned(ctx, batch, p)
			var out [][]int
			for i, res := range results {
				if errs[i] != nil {
					return nil, errs[i]
				}
				out = append(out, res.Labels)
			}
			return out, nil
		},
	}

	// Each path solves held twice, beside a different member, and must
	// give Moore's labels both times.
	ref, err := sfcp.SolveWith(held, sfcp.Options{Algorithm: sfcp.AlgorithmMoore})
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]int
	for k, path := range paths {
		labels, err := path([]sfcp.Instance{held, others[0], held})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(labels[0], ref.Labels) || !slices.Equal(labels[2], ref.Labels) {
			t.Fatalf("path %d: labels differ from Moore's", k)
		}
		kept = append(kept, labels[0], labels[2])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				batch := []sfcp.Instance{others[(g+i)%len(others)], others[(g+i+1)%len(others)]}
				if _, err := paths[(g+i)%len(paths)](batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for k, labels := range kept {
		for i := range ref.Labels {
			if labels[i] != ref.Labels[i] {
				t.Fatalf("path %d: labels[%d] changed from %d to %d after concurrent solves: result aliases the pooled scratch arena",
					k/2, i, ref.Labels[i], labels[i])
			}
		}
	}
}
