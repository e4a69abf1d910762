package sfcp_test

import (
	"context"
	"sync"
	"testing"

	"sfcp"
	"sfcp/internal/workload"
)

// TestSolveLabelsNeverAliasScratch is the regression guard for the
// scratch-arena contract: the labels a Solver returns must be freshly
// allocated, never a view into the pooled coarsest.Scratch — otherwise the
// next solve that checks the same arena out of the sync.Pool would
// overwrite a result a previous caller still holds. The test snapshots
// one linear solve's labels, then hammers the same solver from many
// goroutines (so the arena is Put, re-Got and rewritten concurrently) and
// checks the snapshot never changes. Run under -race this also catches
// witnessed writes into retained memory.
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
	solve := func(ins sfcp.Instance) (sfcp.Result, error) {
		p, err := sfcp.PlanWith(ins, opts)
		if err != nil {
			return sfcp.Result{}, err
		}
		return s.SolvePlanned(ctx, ins, p)
	}
	res, err := solve(held)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]int(nil), res.Labels...)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := solve(others[(g+i)%len(others)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range snapshot {
		if res.Labels[i] != snapshot[i] {
			t.Fatalf("labels[%d] changed from %d to %d after concurrent solves: result aliases the pooled scratch arena",
				i, snapshot[i], res.Labels[i])
		}
	}

	// The same contract holds for batch members.
	batch := []sfcp.Instance{held, others[0], held}
	p, err := sfcp.PlanBatch(batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := s.SolveBatchPlanned(ctx, batch, p)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	kept := append([]int(nil), results[0].Labels...)
	for i := 0; i < 30; i++ {
		if _, err := solve(others[i%len(others)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range kept {
		if results[0].Labels[i] != kept[i] {
			t.Fatalf("batch labels[%d] mutated by later solves", i)
		}
	}
}
