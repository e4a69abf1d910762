// Package workload generates the input families used by the experiments in
// internal/bench (`sfcpbench -list`): random functions (the generic case, whose pseudo-forests
// have ~sqrt(n) cycle nodes hanging with shallow trees), permutations (pure
// cycles), structured cycle families, deep brooms, stars, unary DFAs, and
// circular strings / string lists for the Section 3.1 subproblems. All
// generators are deterministic given the seed.
package workload

import (
	"math/rand"
)

// Instance mirrors coarsest.Instance without importing it (keeps the
// package usable from benchmarks of any layer).
type Instance struct {
	F []int
	B []int
}

// RandomFunction draws f uniformly from all n^n functions and B uniformly
// over `blocks` labels. The expected structure: ~sqrt(pi n/8) cycle nodes,
// ~log n components.
func RandomFunction(seed int64, n, blocks int) Instance {
	rng := rand.New(rand.NewSource(seed))
	f := make([]int, n)
	b := make([]int, n)
	for i := range f {
		f[i] = rng.Intn(n)
		b[i] = rng.Intn(blocks)
	}
	return Instance{F: f, B: b}
}

// RandomPermutation draws a uniform permutation (pure cycles, no trees) —
// the Section 3 regime.
func RandomPermutation(seed int64, n, blocks int) Instance {
	rng := rand.New(rand.NewSource(seed))
	b := make([]int, n)
	for i := range b {
		b[i] = rng.Intn(blocks)
	}
	return Instance{F: rng.Perm(n), B: b}
}

// CycleFamily builds k disjoint cycles of length l whose B-strings are the
// same periodic pattern rotated by a per-cycle shift, so all cycles are
// equivalent: the adversarial case for cycle partitioning (classes must be
// discovered through m.s.p. alignment, not hashing of raw strings).
func CycleFamily(seed int64, k, l, period int) Instance {
	rng := rand.New(rand.NewSource(seed))
	if period > l {
		period = l
	}
	pattern := make([]int, period)
	for i := range pattern {
		pattern[i] = rng.Intn(3)
	}
	n := k * l
	f := make([]int, n)
	b := make([]int, n)
	for c := 0; c < k; c++ {
		shift := rng.Intn(period)
		for i := 0; i < l; i++ {
			idx := c*l + i
			f[idx] = c*l + (i+1)%l
			b[idx] = pattern[(i+shift)%period]
		}
	}
	return Instance{F: f, B: b}
}

// DistinctCycles builds k cycles of length l with mostly-random labels, so
// most cycles fall into distinct classes.
func DistinctCycles(seed int64, k, l, blocks int) Instance {
	rng := rand.New(rand.NewSource(seed))
	n := k * l
	f := make([]int, n)
	b := make([]int, n)
	for c := 0; c < k; c++ {
		for i := 0; i < l; i++ {
			idx := c*l + i
			f[idx] = c*l + (i+1)%l
			b[idx] = rng.Intn(blocks)
		}
	}
	return Instance{F: f, B: b}
}

// Broom builds one cycle of length cyc with (n-cyc)/paths long chains
// attached: the deep-tree regime of Section 4. Labels partially match the
// cycle pattern so both marked and unmarked tree phases are exercised.
func Broom(seed int64, n, cyc, paths int) Instance {
	rng := rand.New(rand.NewSource(seed))
	if cyc < 1 {
		cyc = 1
	}
	if cyc > n {
		cyc = n
	}
	if paths < 1 {
		paths = 1
	}
	f := make([]int, n)
	b := make([]int, n)
	for i := 0; i < cyc; i++ {
		f[i] = (i + 1) % cyc
		b[i] = i % 3
	}
	rest := n - cyc
	per := rest / paths
	idx := cyc
	for p := 0; p < paths && idx < n; p++ {
		attach := rng.Intn(cyc)
		prev := attach
		limit := per
		if p == paths-1 {
			limit = n - idx
		}
		for j := 0; j < limit && idx < n; j++ {
			f[idx] = prev
			if rng.Intn(4) == 0 {
				b[idx] = rng.Intn(3)
			} else {
				b[idx] = (b[prev] - 1 + 3) % 3 // mostly matching the cycle walk
			}
			prev = idx
			idx++
		}
	}
	for ; idx < n; idx++ { // safety: attach leftovers directly
		f[idx] = rng.Intn(cyc)
		b[idx] = rng.Intn(3)
	}
	return Instance{F: f, B: b}
}

// Star attaches n-1 leaves to a single self-loop: the widest, shallowest
// forest.
func Star(seed int64, n, blocks int) Instance {
	rng := rand.New(rand.NewSource(seed))
	f := make([]int, n)
	b := make([]int, n)
	for i := 1; i < n; i++ {
		b[i] = rng.Intn(blocks)
	}
	return Instance{F: f, B: b}
}

// UnaryDFA models minimization of a deterministic automaton over a
// one-letter alphabet with `states` states and a random accepting set of
// the given density (per mille): F is the transition function, B the
// accept/reject partition. This is the application domain of Srikant [18].
func UnaryDFA(seed int64, states, acceptPerMille int) Instance {
	rng := rand.New(rand.NewSource(seed))
	f := make([]int, states)
	b := make([]int, states)
	for i := range f {
		f[i] = rng.Intn(states)
		if rng.Intn(1000) < acceptPerMille {
			b[i] = 1
		}
	}
	return Instance{F: f, B: b}
}

// CircularString returns a random circular string of length n over
// {0..sigma-1}.
func CircularString(seed int64, n, sigma int) []int {
	rng := rand.New(rand.NewSource(seed))
	s := make([]int, n)
	for i := range s {
		s[i] = rng.Intn(sigma)
	}
	return s
}

// PeriodicCircularString returns a circular string of length n that is the
// repetition of a random primitive block of the given period (n must be a
// multiple of period for exact periodicity; the tail is truncated
// otherwise).
func PeriodicCircularString(seed int64, n, period, sigma int) []int {
	rng := rand.New(rand.NewSource(seed))
	block := make([]int, period)
	for i := range block {
		block[i] = rng.Intn(sigma)
	}
	s := make([]int, n)
	for i := range s {
		s[i] = block[i%period]
	}
	return s
}

// RunHeavyCircularString returns a string with long runs of the minimum
// symbol — the stress case for the marking step of the m.s.p. algorithms.
func RunHeavyCircularString(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	s := make([]int, n)
	i := 0
	for i < n {
		run := 1 + rng.Intn(8)
		sym := rng.Intn(3)
		for j := 0; j < run && i < n; j++ {
			s[i] = sym
			i++
		}
	}
	return s
}

// StringList returns m strings of geometric-ish lengths totalling roughly
// total symbols over {0..sigma-1}.
func StringList(seed int64, m, total, sigma int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	strs := make([][]int, m)
	remaining := total
	for i := range strs {
		avg := remaining / (m - i)
		l := 1
		if avg > 1 {
			l = 1 + rng.Intn(2*avg-1)
		}
		if l > remaining-(m-i-1) {
			l = remaining - (m - i - 1)
		}
		if l < 1 {
			l = 1
		}
		s := make([]int, l)
		for j := range s {
			s[j] = rng.Intn(sigma)
		}
		strs[i] = s
		remaining -= l
	}
	return strs
}
