// Package listrank implements parallel list ranking, the workhorse of
// Step 1 of the JáJá–Ryu cycle-labeling algorithm ("label each cycle with
// one of the indices of the cycle, and then rank all the nodes in each
// cycle starting from the chosen index") and of the Euler-tour machinery.
//
// Two methods are provided:
//
//   - Wyllie: classic pointer jumping, O(log n) rounds and O(n log n) work.
//   - RulingSet: a randomized sparse-ruling-set contraction that does
//     O(n) expected work in O(log n) rounds, standing in for the optimal
//     deterministic algorithm of Anderson & Miller cited by the paper.
//     It falls back to Wyllie in the (exponentially unlikely) event that a
//     cycle receives no ruler or a walk overruns its high-probability cap.
//
// Ablation A2 in internal/bench (`sfcpbench -exp A2`) measures the work
// gap between the two.
package listrank

import (
	"math/bits"

	"sfcp/internal/pram"
)

// Method selects the list-ranking algorithm.
type Method uint8

const (
	// Wyllie is plain pointer jumping (O(n log n) work).
	Wyllie Method = iota
	// RulingSet is sparse-ruling-set contraction (O(n) expected work).
	RulingSet
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Wyllie:
		return "wyllie"
	case RulingSet:
		return "ruling-set"
	}
	return "unknown"
}

// RankToEnd computes, for disjoint linked lists given by next[i] (terminator
// next[i] == -1), the number of edges from each node to its list's terminal
// node. Pointer jumping: O(log n) rounds, O(n log n) work.
func RankToEnd(m *pram.Machine, next *pram.Array) *pram.Array {
	n := next.Len()
	rank := m.NewArray(n)
	if n == 0 {
		return rank
	}
	jump := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(next, p) == -1 {
			c.Write(rank, p, 0)
		} else {
			c.Write(rank, p, 1)
		}
		c.Write(jump, p, c.Read(next, p))
	})
	for step := 0; step < bits.Len(uint(n)); step++ {
		m.ParDo(n, func(c *pram.Ctx, p int) {
			j := c.Read(jump, p)
			if j == -1 {
				return
			}
			c.Write(rank, p, c.Read(rank, p)+c.Read(rank, int(j)))
			c.Write(jump, p, c.Read(jump, int(j)))
		})
	}
	return rank
}

// CycleRank analyses a permutation given by successor pointers next (every
// node lies on exactly one cycle) and returns, for every node i:
//
//	leader[i]: the minimum-index node on i's cycle (a canonical label),
//	rank[i]:   the distance from leader[i] to i along next (leader gets 0),
//	length[i]: the length of i's cycle.
func CycleRank(m *pram.Machine, next *pram.Array, method Method) (leader, rank, length *pram.Array) {
	switch method {
	case Wyllie:
		ones := m.NewArray(next.Len())
		pram.Fill(m, ones, 1)
		return cycleRankWyllieWeighted(m, next, ones)
	case RulingSet:
		return cycleRankRulingSet(m, next)
	default:
		panic("listrank: unknown method")
	}
}

// cycleRankWyllieWeighted solves the weighted cycle-ranking problem: edge
// i -> next[i] has length weight[i]; rank is the weighted distance from the
// minimum-index node of the cycle; length is the cycle's total weight.
func cycleRankWyllieWeighted(m *pram.Machine, next, weight *pram.Array) (leader, rank, length *pram.Array) {
	n := next.Len()
	leader = m.NewArray(n)
	rank = m.NewArray(n)
	length = m.NewArray(n)
	if n == 0 {
		return leader, rank, length
	}

	// Min-doubling: after k iterations lead[i] is the minimum index in the
	// window of 2^k nodes starting at i; jump[i] points 2^k nodes ahead.
	lead := m.NewArray(n)
	pram.Iota(m, lead, 0)
	jump := m.NewArray(n)
	pram.Copy(m, jump, next)
	for step := 0; step < bits.Len(uint(n)); step++ {
		m.ParDo(n, func(c *pram.Ctx, p int) {
			j := int(c.Read(jump, p))
			lj := c.Read(lead, j)
			if lj < c.Read(lead, p) {
				c.Write(lead, p, lj)
			}
			c.Write(jump, p, c.Read(jump, j))
		})
	}
	pram.Copy(m, leader, lead)

	// Break the cycle at the leader and rank toward it to obtain weighted
	// distances and the exact cycle weight.
	broken := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		nx := c.Read(next, p)
		if c.Read(leader, int(nx)) == nx {
			c.Write(broken, p, -1) // predecessor of leader terminates
		} else {
			c.Write(broken, p, nx)
		}
	})
	// distTo[i]: weighted distance from i to the leader of its cycle going
	// forward (leader's predecessor has weight[pred], leader itself gets
	// the full cycle length by wrapping; handle it separately).
	distTo := m.NewArray(n)
	jump2 := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(broken, p) == -1 {
			c.Write(distTo, p, c.Read(weight, p))
			c.Write(jump2, p, -1)
		} else {
			c.Write(distTo, p, c.Read(weight, p))
			c.Write(jump2, p, c.Read(broken, p))
		}
	})
	for step := 0; step < bits.Len(uint(n)); step++ {
		m.ParDo(n, func(c *pram.Ctx, p int) {
			j := c.Read(jump2, p)
			if j == -1 {
				return
			}
			c.Write(distTo, p, c.Read(distTo, p)+c.Read(distTo, int(j)))
			c.Write(jump2, p, c.Read(jump2, int(j)))
		})
	}
	// Leader's distTo is the full cycle weight (it wraps around to itself).
	m.ParDo(n, func(c *pram.Ctx, p int) {
		ld := int(c.Read(leader, p))
		c.Write(length, p, c.Read(distTo, ld))
	})
	// rank[i] = length - distTo[i], except rank[leader] = 0.
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if int(c.Read(leader, p)) == p {
			c.Write(rank, p, 0)
		} else {
			c.Write(rank, p, c.Read(length, p)-c.Read(distTo, p))
		}
	})
	return leader, rank, length
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cycleRankRulingSet contracts each cycle over a random ~1/log n sample of
// "rulers", solves the contracted weighted problem with Wyllie (now on
// O(n/log n) nodes, so O(n) work), and expands back. Expected O(n) work.
func cycleRankRulingSet(m *pram.Machine, next *pram.Array) (leader, rank, length *pram.Array) {
	n := next.Len()
	if n <= 64 {
		ones := m.NewArray(n)
		pram.Fill(m, ones, 1)
		return cycleRankWyllieWeighted(m, next, ones)
	}
	lg := bits.Len(uint(n))
	s := lg // expected segment length
	cap64 := int64(8 * s * lg)

	isRuler := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if splitmix64(0xabcdef12345^uint64(p))%uint64(s) == 0 {
			c.Write(isRuler, p, 1)
		} else {
			c.Write(isRuler, p, 0)
		}
	})

	owner := m.NewArray(n)
	pram.Fill(m, owner, -1)
	dist := m.NewArray(n)
	segMin := m.NewArray(n) // per ruler: min node index in its segment
	nextRuler := m.NewArray(n)
	gap := m.NewArray(n)
	fail := m.NewArray(1)

	rulers := pram.CompactIndices(m, isRuler)
	nr := rulers.Len()
	if nr == 0 {
		ones := m.NewArray(n)
		pram.Fill(m, ones, 1)
		return cycleRankWyllieWeighted(m, next, ones)
	}

	// Each ruler walks its segment sequentially. The walk bodies are
	// sequential loops; the parallel time of the step is the length of the
	// longest walk, charged honestly below from the measured maximum.
	walkLen := m.NewArray(nr)
	m.ParDo(nr, func(c *pram.Ctx, p int) {
		r := int(c.Read(rulers, p))
		c.Write(owner, r, int64(r))
		c.Write(dist, r, 0)
		mn := int64(r)
		j := int(c.Read(next, r))
		var d int64 = 1
		for ; d <= cap64; d++ {
			if c.Read(isRuler, j) != 0 {
				c.Write(nextRuler, r, int64(j))
				c.Write(gap, r, d)
				c.Write(segMin, r, mn)
				c.Write(walkLen, p, d)
				c.Charge(d)
				return
			}
			c.Write(owner, j, int64(r))
			c.Write(dist, j, d)
			if int64(j) < mn {
				mn = int64(j)
			}
			j = int(c.Read(next, j))
		}
		c.Write(fail, 0, 1)
		c.Write(walkLen, p, d)
		c.Charge(d)
	})
	if maxWalk := pram.ReduceMax(m, walkLen); maxWalk > 1 {
		m.ChargeModel(maxWalk-1, 0) // remaining depth of the longest walk
	}

	if fail.At(0) != 0 {
		ones := m.NewArray(n)
		pram.Fill(m, ones, 1)
		return cycleRankWyllieWeighted(m, next, ones)
	}
	// A cycle with no ruler leaves its nodes unvisited.
	unvisited := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(owner, p) == -1 {
			c.Write(unvisited, p, 1)
		} else {
			c.Write(unvisited, p, 0)
		}
	})
	if pram.ReduceSum(m, unvisited) != 0 {
		ones := m.NewArray(n)
		pram.Fill(m, ones, 1)
		return cycleRankWyllieWeighted(m, next, ones)
	}

	// Contract: index rulers densely.
	cidx := m.NewArray(n)
	m.ParDo(nr, func(c *pram.Ctx, p int) {
		c.Write(cidx, int(c.Read(rulers, p)), int64(p))
	})
	cnext := m.NewArray(nr)
	cweight := m.NewArray(nr)
	m.ParDo(nr, func(c *pram.Ctx, p int) {
		r := int(c.Read(rulers, p))
		c.Write(cnext, p, c.Read(cidx, int(c.Read(nextRuler, r))))
		c.Write(cweight, p, c.Read(gap, r))
	})

	_, cwrank, clen := cycleRankWyllieWeighted(m, cnext, cweight)

	// The contracted leader is the min contracted index, i.e. the ruler
	// with the smallest original index — not necessarily the cycle's true
	// minimum node, which may sit inside a segment. Recover the true
	// minimum by min-doubling segMin around the contracted cycle.
	cmin := m.NewArray(nr)
	m.ParDo(nr, func(c *pram.Ctx, p int) {
		c.Write(cmin, p, c.Read(segMin, int(c.Read(rulers, p))))
	})
	cjump := m.NewArray(nr)
	pram.Copy(m, cjump, cnext)
	for step := 0; step < bits.Len(uint(nr)); step++ {
		m.ParDo(nr, func(c *pram.Ctx, p int) {
			j := int(c.Read(cjump, p))
			if v := c.Read(cmin, j); v < c.Read(cmin, p) {
				c.Write(cmin, p, v)
			}
			c.Write(cjump, p, c.Read(cjump, j))
		})
	}

	// absPos[i]: distance from the contracted leader ruler to node i.
	absPos := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		ow := int(c.Read(owner, p))
		c.Write(absPos, p, c.Read(cwrank, int(c.Read(cidx, ow)))+c.Read(dist, p))
	})

	leader = m.NewArray(n)
	length = m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		ci := int(c.Read(cidx, int(c.Read(owner, p))))
		c.Write(leader, p, c.Read(cmin, ci))
		c.Write(length, p, c.Read(clen, ci))
	})

	// Shift ranks so the true leader is at 0: leaderPos[L] = absPos[L],
	// broadcast through the leader's own cell.
	leaderPos := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if int(c.Read(leader, p)) == p {
			c.Write(leaderPos, p, c.Read(absPos, p))
		}
	})
	rank = m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		l := int(c.Read(leader, p))
		ln := c.Read(length, p)
		v := (c.Read(absPos, p) - c.Read(leaderPos, l)) % ln
		if v < 0 {
			v += ln
		}
		c.Write(rank, p, v)
	})
	return leader, rank, length
}
