package sfcp_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/workload"
)

func wl(ins workload.Instance) sfcp.Instance {
	return sfcp.Instance{F: ins.F, B: ins.B}
}

// mustPlan resolves opts for ins, failing the test on an error.
func mustPlan(t *testing.T, ins sfcp.Instance, opts sfcp.Options) sfcp.Plan {
	t.Helper()
	p, err := sfcp.PlanWith(ins, opts)
	if err != nil {
		t.Fatalf("PlanWith %v: %v", opts.Algorithm, err)
	}
	return p
}

func TestSolverMatchesSolveWithAllAlgorithms(t *testing.T) {
	instances := []sfcp.Instance{
		wl(workload.RandomFunction(1, 300, 3)),
		wl(workload.CycleFamily(2, 4, 25, 5)),
		wl(workload.Broom(3, 200, 20, 4)),
		wl(workload.Star(4, 100, 2)),
	}
	s := sfcp.NewSolver(sfcp.Options{Seed: 7})
	for _, algo := range sfcp.Algorithms() {
		for i, ins := range instances {
			got, err := s.SolvePlanned(context.Background(), ins, mustPlan(t, ins, sfcp.Options{Algorithm: algo}))
			if err != nil {
				t.Fatalf("%v instance %d: %v", algo, i, err)
			}
			want, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
			if err != nil {
				t.Fatal(err)
			}
			if !sfcp.SamePartition(got.Labels, want.Labels) {
				t.Errorf("%v instance %d: partition mismatch", algo, i)
			}
			if got.NumClasses != want.NumClasses {
				t.Errorf("%v instance %d: classes %d, want %d", algo, i, got.NumClasses, want.NumClasses)
			}
		}
	}
}

func TestSolveContextCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	n := 5000
	if testing.Short() {
		n = 1500 // the full size is slow under -race; semantics are size-independent
	}
	big := wl(workload.RandomFunction(7, n, 3))
	want, err := sfcp.SolveWith(big, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
	if err != nil {
		t.Fatal(err)
	}
	s := sfcp.NewSolver(sfcp.Options{})
	for _, algo := range []sfcp.Algorithm{
		sfcp.AlgorithmParallelPRAM, sfcp.AlgorithmDoublingHash, sfcp.AlgorithmDoublingSort,
		sfcp.AlgorithmMoore, sfcp.AlgorithmLinear, // sequential: entry check only
	} {
		p := mustPlan(t, big, sfcp.Options{Algorithm: algo})
		if _, err := s.SolvePlanned(cancelled, big, p); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: cancelled solve returned %v, want context.Canceled", algo, err)
		}
		if _, err := sfcp.SolvePlanned(cancelled, big, p, sfcp.Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: cancelled package-level solve returned %v, want context.Canceled", algo, err)
		}
		_, errs := s.SolveBatchPlanned(cancelled, []sfcp.Instance{big, big}, p)
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v: cancelled batch member %d returned %v, want context.Canceled", algo, i, err)
			}
		}
		// The same solver still works with a live context afterwards.
		res, err := s.SolvePlanned(context.Background(), big, p)
		if err != nil {
			t.Fatalf("%v after cancel: %v", algo, err)
		}
		if !sfcp.SamePartition(res.Labels, want.Labels) {
			t.Errorf("%v after cancel: wrong partition", algo)
		}
	}
}

// TestSolveContextCancelMidSolve cancels while a parallel-pram solve is in
// flight and checks the step loop aborts with the context error.
func TestSolveContextCancelMidSolve(t *testing.T) {
	s := sfcp.NewSolver(sfcp.Options{})
	ins := wl(workload.RandomFunction(11, 60_000, 3))
	p := mustPlan(t, ins, sfcp.Options{Algorithm: sfcp.AlgorithmParallelPRAM})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.SolvePlanned(ctx, ins, p)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the simulation start stepping
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-solve cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled solve did not return")
	}
}

func TestSolverUnknownAlgorithm(t *testing.T) {
	ins := wl(workload.Star(1, 5, 2))
	if _, err := sfcp.PlanWith(ins, sfcp.Options{Algorithm: sfcp.Algorithm(99)}); err == nil {
		t.Error("PlanWith accepted an unknown algorithm")
	}
	bogus := sfcp.Plan{Algorithm: sfcp.Algorithm(99), Workers: 1}
	if _, err := sfcp.NewSolver(sfcp.Options{}).SolvePlanned(context.Background(), ins, bogus); err == nil {
		t.Error("Solver.SolvePlanned executed an unknown algorithm")
	}
	if _, errs := sfcp.NewSolver(sfcp.Options{}).SolveBatchPlanned(context.Background(), []sfcp.Instance{ins}, bogus); errs[0] == nil {
		t.Error("Solver.SolveBatchPlanned executed an unknown algorithm")
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range sfcp.Algorithms() {
		got, err := sfcp.ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := sfcp.ParseAlgorithm("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestInstanceDigest(t *testing.T) {
	a := sfcp.Instance{F: []int{0, 1}, B: []int{1, 0}}
	b := sfcp.Instance{F: []int{0, 1}, B: []int{1, 0}}
	if a.Digest() != b.Digest() {
		t.Error("equal instances digest differently")
	}
	// Moving an element across the F/B boundary must change the digest.
	c := sfcp.Instance{F: []int{0, 1, 1}, B: []int{0}}
	d := sfcp.Instance{F: []int{0, 1}, B: []int{1, 0}}
	if c.Digest() == d.Digest() {
		t.Error("F/B boundary not folded into digest")
	}
	if (sfcp.Instance{F: []int{0}, B: []int{5}}).Digest() == a.Digest() {
		t.Error("different instances share a digest")
	}
	// Digest runs before validation, so an element is hashed as all 8 of
	// its bytes: an invalid F[i] + 2^32 must not take a valid instance's
	// address (a resident session would answer it unvalidated).
	if (sfcp.Instance{F: []int{0, 1 + 1<<32}, B: []int{1, 0}}).Digest() == a.Digest() {
		t.Error("F[i] and F[i]+2^32 share a digest")
	}
}

// digestLeaf is the address's leaf size in elements, the unexported
// constant of internal/addr.
const digestLeaf = 4096

// TestInstanceDigestGolden pins the content address, the root of a
// two-level SHA-256 tree (DESIGN.md section 9). The golden is the one
// deployed caches, result blobs and version blobs are keyed on; a change
// to it is a change of format. An in-test reference tree, one hash write
// per word, cross-checks the streamed implementation on sizes around the
// leaf boundaries, with F and B of different lengths too.
func TestInstanceDigestGolden(t *testing.T) {
	ins := sfcp.Instance{F: []int{1, 2, 0, 2}, B: []int{0, 1, 0, 1}}
	const want = "9331effea58de3a77ee3b3413cc7faf6f3c98c9ed0f74d382f945a0da4f1df17"
	if got := ins.Digest(); got != want {
		t.Fatalf("golden digest changed:\n got %s\nwant %s", got, want)
	}

	word := func(w []byte, v int) []byte { return binary.LittleEndian.AppendUint64(w, uint64(v)) }
	leaves := func(vals []int) []byte {
		var sums []byte
		for lo := 0; lo < len(vals); lo += digestLeaf {
			h := sha256.New()
			h.Write([]byte{0x00})
			for _, v := range vals[lo:min(lo+digestLeaf, len(vals))] {
				h.Write(word(nil, v))
			}
			sums = h.Sum(sums)
		}
		return sums
	}
	ref := func(ins sfcp.Instance) string {
		h := sha256.New()
		h.Write([]byte{0x01})
		for _, v := range []int{1, len(ins.F), len(ins.B), digestLeaf} {
			h.Write(word(nil, v))
		}
		h.Write(leaves(ins.F))
		h.Write(leaves(ins.B))
		return hex.EncodeToString(h.Sum(nil))
	}
	const L = digestLeaf
	for _, n := range []int{0, 1, L - 1, L, L + 1, 3*L + 5} {
		w := workload.RandomFunction(int64(n), n+1, 3)
		for _, ins := range []sfcp.Instance{
			{F: w.F[:n], B: w.B[:n]},
			{F: w.F[:n+1], B: w.B[:n]},
		} {
			if got, want := ins.Digest(), ref(ins); got != want {
				t.Errorf("len(F)=%d len(B)=%d: digest %s, reference %s", len(ins.F), len(ins.B), got, want)
			}
		}
	}
}
