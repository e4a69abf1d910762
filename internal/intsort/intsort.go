// Package intsort provides stable integer sorting over polynomial ranges,
// the only super-linear-work component of the JáJá–Ryu pipeline.
//
// The paper invokes the deterministic parallel integer sorter of Bhatt,
// Diks, Hagerup, Prasad, Radzik and Saxena (Inform. and Comput. 94, 1991) as
// a black box: O(log n / log log n) time and O(n log log n) operations on
// the Arbitrary CRCW PRAM for keys in [0, n^O(1)]. Reimplementing that
// algorithm is a paper-sized project of its own, so this package offers
// three strategies:
//
//   - Modeled: the sort is carried out on the host (stable) and the
//     machine is charged exactly the published Bhatt et al. costs. This is
//     the default and mirrors how the paper itself accounts for sorting.
//   - BitSplit: a genuinely step-by-step PRAM radix sort, one bit per pass
//     via prefix sums: O(log n log K) rounds and O(n log K) work for K-bit
//     keys. This is the sorting cost the pre-1991 algorithms (e.g.
//     Galley–Iliopoulos) paid.
//   - Grouped: a genuinely step-by-step counting sort with radix R and
//     per-group sequential loops of length s (rounds charged honestly):
//     O((s + log n)·⌈K/log R⌉) rounds and O(n·⌈K/log R⌉) work.
//
// Ablation A1 in internal/bench (`sfcpbench -exp A1`) contrasts the three.
package intsort

import (
	"math/bits"
	"sort"

	"sfcp/internal/pram"
)

// Strategy selects how SortPRAM executes and charges the sort.
type Strategy uint8

const (
	// Modeled charges the Bhatt et al. published costs and sorts on the
	// host. Default.
	Modeled Strategy = iota
	// BitSplit runs a real one-bit-per-pass PRAM radix sort.
	BitSplit
	// Grouped runs a real counting-sort-per-digit PRAM radix sort with
	// logarithmic group size.
	Grouped
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Modeled:
		return "modeled-bhatt"
	case BitSplit:
		return "bit-split"
	case Grouped:
		return "grouped-counting"
	}
	return "unknown"
}

// StableRanks sorts keys stably on the host and returns perm such that
// keys[perm[0]] <= keys[perm[1]] <= ... with ties in index order.
func StableRanks(keys []int64) []int {
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

// CountingRanks is a linear-time host-side stable counting sort for keys in
// [0, maxKey]. It returns the same permutation as StableRanks.
func CountingRanks(keys []int64, maxKey int64) []int {
	if maxKey < 0 {
		maxKey = 0
	}
	count := make([]int, maxKey+2)
	for _, k := range keys {
		count[k+1]++
	}
	for v := int64(1); v < maxKey+2; v++ {
		count[v] += count[v-1]
	}
	perm := make([]int, len(keys))
	for i, k := range keys {
		perm[count[k]] = i
		count[k]++
	}
	return perm
}

// bhattCost returns the modeled (rounds, work) of the Bhatt et al. sorter
// for n keys: O(log n / log log n) rounds and O(n log log n) work. The
// constants are taken as 1 so measured curves expose the asymptotic shape.
func bhattCost(n int) (rounds, work int64) {
	if n <= 1 {
		return 1, int64(n)
	}
	lg := int64(bits.Len(uint(n - 1))) // ceil(log2 n)
	lglg := int64(bits.Len(uint(lg)))  // ~log log n
	if lglg < 1 {
		lglg = 1
	}
	rounds = lg / lglg
	if rounds < 1 {
		rounds = 1
	}
	work = int64(n) * lglg
	return rounds, work
}

// SortPRAM stably sorts the array of keys in [0, maxKey] on machine m and
// returns the permutation perm with keys[perm[0]] <= keys[perm[1]] <= ...,
// ties in index order. Costs are charged per the chosen strategy.
func SortPRAM(m *pram.Machine, keys *pram.Array, maxKey int64, strat Strategy) *pram.Array {
	n := keys.Len()
	perm := m.NewArray(n)
	if n == 0 {
		return perm
	}
	switch strat {
	case Modeled:
		host := keys.Slice()
		p := StableRanks(host)
		hostPerm := make([]int64, n)
		for i, v := range p {
			hostPerm[i] = int64(v)
		}
		perm.Load(hostPerm)
		r, w := bhattCost(n)
		m.ChargeModel(r, w)
	case BitSplit:
		bitSplitSort(m, keys, maxKey, perm)
	case Grouped:
		groupedSort(m, keys, maxKey, perm)
	default:
		panic("intsort: unknown strategy")
	}
	return perm
}

// bitSplitSort is a real PRAM LSD radix sort, one bit per pass. Each pass is
// a stable two-way split computed with prefix sums: O(log n) rounds and
// O(n) work per bit of the key range.
func bitSplitSort(m *pram.Machine, keys *pram.Array, maxKey int64, perm *pram.Array) {
	n := keys.Len()
	nbits := bits.Len64(uint64(maxKey))
	if nbits == 0 {
		nbits = 1
	}
	pram.Iota(m, perm, 0)
	cur := m.NewArray(n) // keys permuted by perm
	pram.Copy(m, cur, keys)

	for b := 0; b < nbits; b++ {
		bit := int64(1) << uint(b)
		zeros := m.NewArray(n)
		m.ParDo(n, func(c *pram.Ctx, p int) {
			if c.Read(cur, p)&bit == 0 {
				c.Write(zeros, p, 1)
			} else {
				c.Write(zeros, p, 0)
			}
		})
		zeroPos, numZeros := pram.ExclusiveScan(m, zeros)
		onesFlags := m.NewArray(n)
		m.ParDo(n, func(c *pram.Ctx, p int) {
			c.Write(onesFlags, p, 1-c.Read(zeros, p))
		})
		onePos, _ := pram.ExclusiveScan(m, onesFlags)
		newPerm := m.NewArray(n)
		newKeys := m.NewArray(n)
		m.ParDo(n, func(c *pram.Ctx, p int) {
			var dst int
			if c.Read(zeros, p) != 0 {
				dst = int(c.Read(zeroPos, p))
			} else {
				dst = int(numZeros + c.Read(onePos, p))
			}
			c.Write(newPerm, dst, c.Read(perm, p))
			c.Write(newKeys, dst, c.Read(cur, p))
		})
		pram.Copy(m, perm, newPerm)
		pram.Copy(m, cur, newKeys)
	}
}

// groupedSort is a real PRAM LSD radix sort processing w = ceil(log2 log2 n)
// bits per pass with a counting sort: the input is cut into groups of size
// s = R = 2^w; one virtual processor per group counts and scatters its group
// sequentially (charging s rounds honestly), and a global prefix sum over
// the R x G counter matrix provides stable bucket bases.
func groupedSort(m *pram.Machine, keys *pram.Array, maxKey int64, perm *pram.Array) {
	n := keys.Len()
	nbits := bits.Len64(uint64(maxKey))
	if nbits == 0 {
		nbits = 1
	}
	lg := bits.Len(uint(n))
	w := bits.Len(uint(lg)) // ~ log log n bits per pass
	if w < 1 {
		w = 1
	}
	r := 1 << uint(w) // radix = bucket count = group size
	g := (n + r - 1) / r

	pram.Iota(m, perm, 0)
	cur := m.NewArray(n)
	pram.Copy(m, cur, keys)

	for lo := 0; lo < nbits; lo += w {
		mask := int64(r - 1)
		shift := uint(lo)

		// Count phase: counters in column-major order cnt[v*g + grp] so
		// the exclusive scan yields stable global bucket bases.
		cnt := m.NewArray(r * g)
		pram.Fill(m, cnt, 0)
		m.ParDo(g, func(c *pram.Ctx, grp int) {
			start, end := grp*r, (grp+1)*r
			if end > n {
				end = n
			}
			local := make([]int64, r)
			for i := start; i < end; i++ {
				v := (c.Read(cur, i) >> shift) & mask
				local[v]++
			}
			for v := 0; v < r; v++ {
				if local[v] != 0 {
					c.Write(cnt, v*g+grp, local[v])
				}
			}
			c.Charge(int64(end - start))
		})
		m.ChargeModel(int64(r), 0) // sequential group loop depth

		base, _ := pram.ExclusiveScan(m, cnt)

		newPerm := m.NewArray(n)
		newKeys := m.NewArray(n)
		m.ParDo(g, func(c *pram.Ctx, grp int) {
			start, end := grp*r, (grp+1)*r
			if end > n {
				end = n
			}
			offset := make([]int64, r)
			for i := start; i < end; i++ {
				v := (c.Read(cur, i) >> shift) & mask
				dst := int(c.Read(base, int(v)*g+grp) + offset[v])
				offset[v]++
				c.Write(newPerm, dst, c.Read(perm, i))
				c.Write(newKeys, dst, c.Read(cur, i))
			}
			c.Charge(int64(end - start))
		})
		m.ChargeModel(int64(r), 0)

		pram.Copy(m, perm, newPerm)
		pram.Copy(m, cur, newKeys)
	}
}

// SortPairsPRAM stably sorts pairs (a[i], b[i]) lexicographically, with both
// components in [0, maxVal], returning the stable permutation and the packed
// single-word keys (useful for rank assignment). The pair is packed into a
// key of 2x the bit width, exactly as the paper's Step 3 requires.
func SortPairsPRAM(m *pram.Machine, a, b *pram.Array, maxVal int64, strat Strategy) (perm, packed *pram.Array) {
	if a.Len() != b.Len() {
		panic("intsort: pair length mismatch")
	}
	n := a.Len()
	shift := uint(bits.Len64(uint64(maxVal)))
	if shift == 0 {
		shift = 1
	}
	packed = m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		c.Write(packed, p, c.Read(a, p)<<shift|c.Read(b, p))
	})
	perm = SortPRAM(m, packed, maxVal<<shift|maxVal, strat)
	return perm, packed
}

// RankDistinct assigns to each element of keys the rank of its value among
// the distinct sorted values (dense ranks starting at `base`), stably using
// the given permutation from SortPRAM over the same keys. Returns the rank
// array and the number of distinct values. O(log n) rounds, O(n) work on
// top of the sort.
func RankDistinct(m *pram.Machine, keys, perm *pram.Array, base int64) (*pram.Array, int64) {
	n := keys.Len()
	ranks := m.NewArray(n)
	if n == 0 {
		return ranks, 0
	}
	// headFlags[j] = 1 if sorted position j starts a new distinct value.
	headFlags := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if p == 0 {
			c.Write(headFlags, p, 1)
			return
		}
		kp := c.Read(keys, int(c.Read(perm, p)))
		kq := c.Read(keys, int(c.Read(perm, p-1)))
		if kp != kq {
			c.Write(headFlags, p, 1)
		} else {
			c.Write(headFlags, p, 0)
		}
	})
	pos, distinct := pram.InclusiveScan(m, headFlags)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		c.Write(ranks, int(c.Read(perm, p)), base+c.Read(pos, p)-1)
	})
	return ranks, distinct
}
