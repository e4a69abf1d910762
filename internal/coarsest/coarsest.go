// Package coarsest solves the single function coarsest partition problem:
// given a set S = {0..n-1}, a function f on S and an initial partition B
// (as a label array), find the coarsest partition Q refining B such that f
// maps every block of Q into a block of Q. Equivalently (Lemma 2.1 of
// JáJá & Ryu): x and y share a Q-block iff B[f^i(x)] == B[f^i(y)] for all
// i = 0..n. This is minimization of a Moore machine with a unary input
// alphabet.
//
// Solvers:
//
//   - Moore: naive iterative refinement, O(n) rounds of O(n) (worst O(n^2)).
//   - Hopcroft: partition refinement with the "smaller half" rule,
//     O(n log n) — the classic of Aho–Hopcroft–Ullman cited as [1].
//   - LinearSequentialScratch: the linear-time cycle/tree decomposition in the
//     spirit of Paige–Tarjan–Bonic [16], structured exactly like the
//     parallel algorithm (periods, canonical rotations, tree marking).
//   - ParallelPRAM: the paper's contribution — O(log n) time and
//     O(n log log n) operations on the simulated Arbitrary CRCW PRAM.
//   - DoublingHashPRAM / DoublingSortPRAM: the prior parallel baselines
//     (Galley–Iliopoulos-shape and Srikant-shape).
//
// All solvers return dense Q-labels normalized by first occurrence, so any
// two correct solvers return identical slices.
package coarsest

import (
	"fmt"
	"math"
)

// Instance is a single function coarsest partition problem: F[x] = f(x) and
// B[x] the initial-partition label of x (any non-negative ints).
type Instance struct {
	F []int
	B []int
}

// maxN is the largest instance the solvers accept: the linear solver
// holds node indexes in int32.
const maxN = math.MaxInt32

// Validate checks the instance is well formed and at most maxN nodes.
func (ins Instance) Validate() error {
	n := len(ins.F)
	if err := checkSize(n); err != nil {
		return err
	}
	if len(ins.B) != n {
		return fmt.Errorf("coarsest: |F| = %d but |B| = %d", n, len(ins.B))
	}
	for x, y := range ins.F {
		if y < 0 || y >= n {
			return fmt.Errorf("coarsest: F[%d] = %d out of range [0,%d)", x, y, n)
		}
	}
	for x, b := range ins.B {
		if b < 0 {
			return fmt.Errorf("coarsest: B[%d] = %d negative", x, b)
		}
	}
	return nil
}

// checkSize rejects an instance of more than maxN nodes.
func checkSize(n int) error {
	if n > maxN {
		return fmt.Errorf("coarsest: n = %d exceeds the limit of %d (math.MaxInt32) nodes", n, maxN)
	}
	return nil
}

// NormalizeLabels renames labels to 0,1,2,... in order of first occurrence,
// the canonical form used to compare solver outputs.
//
// Labels in [0, n) — the dense range every solver emits — are renamed
// through a slice-backed table; anything outside it falls back to a map,
// allocated only on first sparse label. Both runs once per solve, so the
// dense path must not allocate a map.
func NormalizeLabels(labels []int) []int {
	n := len(labels)
	out := make([]int, n)
	ids := make([]int, n) // ids[l] = assigned id + 1; 0 = unseen
	next := 0
	var sparse map[int]int
	for i, l := range labels {
		if uint(l) < uint(n) {
			id := ids[l]
			if id == 0 {
				next++
				id = next
				ids[l] = id
			}
			out[i] = id - 1
			continue
		}
		if sparse == nil {
			sparse = make(map[int]int)
		}
		id, ok := sparse[l]
		if !ok {
			id = next
			next++
			sparse[l] = id
		}
		out[i] = id
	}
	return out
}

// narrowLabels returns labels the PRAM pair coder can take: b itself when
// every label is below 2^31, else b's first-occurrence renaming, which
// induces the same partition with labels below n. pram.PairCode packs two
// 31-bit components into one key, so a wider label would panic it. The
// rename is host work done before the machine starts counting (DESIGN.md
// section 7).
func narrowLabels(b []int) []int {
	for _, l := range b {
		if int64(l) >= 1<<31 {
			return NormalizeLabels(b)
		}
	}
	return b
}

// NumClasses returns the number of distinct labels. Dense labels (all in
// [0, n)) are counted through a slice-backed seen-table with zero map
// allocations; sparse labels fall back to a map.
func NumClasses(labels []int) int {
	n := len(labels)
	seen := make([]bool, n)
	count := 0
	var sparse map[int]struct{}
	for _, l := range labels {
		if uint(l) < uint(n) {
			if !seen[l] {
				seen[l] = true
				count++
			}
			continue
		}
		if sparse == nil {
			sparse = make(map[int]struct{})
		}
		if _, ok := sparse[l]; !ok {
			sparse[l] = struct{}{}
			count++
		}
	}
	return count
}

// SamePartition reports whether two labelings induce the same partition.
func SamePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if v, ok := fwd[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := rev[b[i]]; ok && v != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

// IsValidCoarsestPartition checks the two defining conditions of Q against
// the instance plus maximality via Moore (used by property tests): every
// Q-block refines B, f maps Q-blocks into Q-blocks, and the block count
// matches the true coarsest partition.
func IsValidCoarsestPartition(ins Instance, labels []int) bool {
	n := len(ins.F)
	if len(labels) != n {
		return false
	}
	// Q refines B; f maps blocks into blocks.
	repB := map[int]int{}
	repFQ := map[int]int{}
	for x := 0; x < n; x++ {
		q := labels[x]
		if b, ok := repB[q]; ok {
			if ins.B[x] != b {
				return false
			}
		} else {
			repB[q] = ins.B[x]
		}
		fq := labels[ins.F[x]]
		if v, ok := repFQ[q]; ok {
			if fq != v {
				return false
			}
		} else {
			repFQ[q] = fq
		}
	}
	// Coarsest: same class count as the reference solver.
	return NumClasses(labels) == NumClasses(Moore(ins))
}
