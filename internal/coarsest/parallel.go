package coarsest

import (
	"context"
	"math/bits"

	"sfcp/internal/circ"
	"sfcp/internal/euler"
	"sfcp/internal/intsort"
	"sfcp/internal/listrank"
	"sfcp/internal/pram"
)

// ParallelOptions configures the PRAM solver and its substrate algorithms.
type ParallelOptions struct {
	// Model is the PRAM variant (default ArbitraryCRCW, as in the paper).
	Model pram.Model
	// Sort selects the integer-sorting strategy (default intsort.Modeled,
	// standing in for Bhatt et al. — see DESIGN.md).
	Sort intsort.Strategy
	// Rank selects the list-ranking method (default listrank.RulingSet).
	Rank listrank.Method
	// Pad is the odd-block padding convention for the m.s.p. reduction
	// (default PadMin, the paper's Step 2 choice).
	Pad circ.Pad
	// Workers bounds the host goroutines executing each step (0 = NumCPU).
	Workers int
	// Seed drives the deterministic Arbitrary-CRCW write resolution.
	Seed uint64
}

// ParallelResult carries the labels plus the machine's complexity counters.
type ParallelResult struct {
	Labels     []int
	NumClasses int
	Stats      pram.Stats
}

// ParallelPRAM solves the coarsest partition problem with the JáJá–Ryu
// parallel algorithm on a simulated Arbitrary CRCW PRAM:
//
//	Step 1  mark the cycle nodes (Euler tours, Section 5),
//	Step 2  Q-label the cycle nodes (Section 3: list-rank and rearrange the
//	        cycles, reduce each B-label string to its smallest repeating
//	        prefix, find its minimal starting point by the efficient
//	        pair-and-rank reduction, partition equivalent cycles, and label
//	        by (class, offset)),
//	Step 3  Q-label the tree nodes (Section 4: match root paths against the
//	        cycles per Lemma 4.1, clear descendants of mismatches, and code
//	        the remaining forest by (B, parent) pairs per Lemma 4.2).
//
// Theorem 5.1: O(log n) time, O(n log log n) operations. The batching of
// per-cycle work into shared steps uses head-flag segmented primitives; see
// DESIGN.md for the measured-versus-stated cost discussion.
func ParallelPRAM(ins Instance, opts ParallelOptions) ParallelResult {
	// Background is never cancelled, so no error path exists here.
	res, _ := ParallelPRAMContext(context.Background(), ins, opts)
	return res
}

// ParallelPRAMContext is ParallelPRAM with cooperative cancellation: ctx is
// polled at the start of every simulated PRAM step (see pram.WithCancel),
// so a cancelled solve aborts within one step and returns ctx.Err().
func ParallelPRAMContext(ctx context.Context, ins Instance, opts ParallelOptions) (res ParallelResult, err error) {
	defer recoverCancel(&err)
	n := len(ins.F)
	if n == 0 {
		return ParallelResult{Labels: []int{}}, nil
	}
	m := pram.New(opts.Model, machineOptions(ctx, opts)...)

	fArr := m.NewArrayFromInts(ins.F)
	bArr := m.NewArrayFromInts(narrowLabels(ins.B))
	m.ResetStats()

	// Step 1 (+ tree bookkeeping): Euler-tour analysis of the pseudo-forest.
	forest := euler.Analyze(m, fArr, euler.Options{Sort: opts.Sort, Rank: opts.Rank})

	// Step 2: cycle node labeling.
	cy := labelCycles(m, fArr, bArr, forest, opts)

	// Step 3: tree node labeling.
	keys := labelTrees(m, fArr, bArr, forest, cy, opts)

	// Final global renaming to dense labels.
	perm := intsort.SortPRAM(m, keys, pram.TableSize(n)+2, opts.Sort)
	ranks, distinct := intsort.RankDistinct(m, keys, perm, 0)

	return ParallelResult{
		Labels:     NormalizeLabels(ranks.Ints()),
		NumClasses: int(distinct),
		Stats:      m.Stats(),
	}, nil
}

// machineOptions maps ParallelOptions (plus a context) onto simulator
// options; the cancellation hook is installed only for cancellable contexts
// so the common Background path costs nothing per step.
func machineOptions(ctx context.Context, opts ParallelOptions) []pram.Option {
	var machineOpts []pram.Option
	if opts.Workers > 0 {
		machineOpts = append(machineOpts, pram.WithWorkers(opts.Workers))
	}
	if opts.Seed != 0 {
		machineOpts = append(machineOpts, pram.WithSeed(opts.Seed))
	}
	if ctx.Done() != nil {
		machineOpts = append(machineOpts, pram.WithCancel(ctx.Err))
	}
	return machineOpts
}

// recoverCancel converts the simulator's cancellation panic back into the
// context error at the algorithm boundary; other panics propagate.
func recoverCancel(err *error) {
	if r := recover(); r != nil {
		cerr, ok := pram.Cancelled(r)
		if !ok {
			panic(r)
		}
		*err = cerr
	}
}

// cycleLabeling carries the cycle-phase outputs needed by the tree phase.
type cycleLabeling struct {
	cidx    *pram.Array // node -> compact cycle index (undefined for tree nodes)
	rankC   *pram.Array // compact idx -> rank from cycle leader
	lenC    *pram.Array // compact idx -> cycle length
	leaderC *pram.Array // compact idx -> leader compact idx... leader node id
	offsets *pram.Array // compact idx -> arrangement offset of the leader's cycle
	posNode *pram.Array // arrangement position -> node id
	qcode   *pram.Array // node -> provisional Q code (cycle nodes only)
}

// labelCycles implements Algorithm cycle node labeling, batched across all
// cycles with segmented primitives.
func labelCycles(m *pram.Machine, fArr, bArr *pram.Array, forest *euler.Forest, opts ParallelOptions) *cycleLabeling {
	n := fArr.Len()
	cy := &cycleLabeling{}

	// Compact the cycle nodes and list-rank every cycle.
	cycNodes := pram.CompactIndices(m, forest.OnCycle)
	nc := cycNodes.Len()
	cy.cidx = m.NewArray(n)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		c.Write(cy.cidx, int(c.Read(cycNodes, p)), int64(p))
	})
	cnext := m.NewArray(nc)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		node := int(c.Read(cycNodes, p))
		c.Write(cnext, p, c.Read(cy.cidx, int(c.Read(fArr, node))))
	})
	leaderC, rankC, lenC := listrank.CycleRank(m, cnext, opts.Rank)
	cy.rankC, cy.lenC, cy.leaderC = rankC, lenC, leaderC

	// Rearrangement (Step 1 of the algorithm): each cycle occupies a
	// contiguous block, ordered by leader, positions by rank.
	sizes := m.NewArray(nc)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		if int(c.Read(leaderC, p)) == p {
			c.Write(sizes, p, c.Read(lenC, p))
		} else {
			c.Write(sizes, p, 0)
		}
	})
	offsets, _ := pram.ExclusiveScan(m, sizes)
	cy.offsets = offsets
	cy.posNode = m.NewArray(nc)
	posB := m.NewArray(nc)
	heads := m.NewArray(nc)
	rowOfPos := m.NewArray(nc) // arrangement position -> dense row id
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		node := int(c.Read(cycNodes, p))
		pos := int(c.Read(offsets, int(c.Read(leaderC, p))) + c.Read(rankC, p))
		c.Write(cy.posNode, pos, int64(node))
		c.Write(posB, pos, c.Read(bArr, node))
		if c.Read(rankC, p) == 0 {
			c.Write(heads, pos, 1)
		} else {
			c.Write(heads, pos, 0)
		}
	})
	rowIncl, k64 := pram.InclusiveScan(m, heads)
	k := int(k64)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		c.Write(rowOfPos, p, c.Read(rowIncl, p)-1)
	})

	// Smallest repeating prefix per cycle (modeled Breslauer–Galil, as in
	// the per-string PeriodPRAM; see DESIGN.md): computed on the host row
	// by row, charged O(log n) rounds and O(n) work for the whole batch.
	hostB := posB.Ints()
	hostHeads := heads.Ints()
	periods := make([]int64, k)
	rowStartH := make([]int, k)
	rowLenH := make([]int, k)
	{
		row := -1
		for pos := 0; pos < nc; pos++ {
			if hostHeads[pos] != 0 {
				row++
				rowStartH[row] = pos
			}
			rowLenH[row]++
		}
		for r := 0; r < k; r++ {
			periods[r] = int64(circ.SmallestRepeatingPrefix(hostB[rowStartH[r] : rowStartH[r]+rowLenH[r]]))
		}
		m.ChargeModel(int64(bits.Len(uint(nc))), int64(nc))
	}
	periodArr := m.NewArrayFrom(periods)

	// Truncate each row to its period prefix.
	relPos := m.NewArray(nc)
	startScanSrc := m.NewArray(nc)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		if c.Read(heads, p) != 0 {
			c.Write(startScanSrc, p, int64(p))
		} else {
			c.Write(startScanSrc, p, -1)
		}
	})
	rowStart := pram.SegmentedScanMax(m, startScanSrc, heads)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		c.Write(relPos, p, int64(p)-c.Read(rowStart, p))
	})
	keep := m.NewArray(nc)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		if c.Read(relPos, p) < c.Read(periodArr, int(c.Read(rowOfPos, p))) {
			c.Write(keep, p, 1)
		} else {
			c.Write(keep, p, 0)
		}
	})
	truncB := pram.Compact(m, posB, keep)
	truncRow := pram.Compact(m, rowOfPos, keep)
	truncHeads := pram.Compact(m, heads, keep)
	truncRel := pram.Compact(m, relPos, keep)

	// Batched efficient m.s.p. over the ragged period matrix.
	msp := batchedMSP(m, truncB, truncRow, truncHeads, truncRel, k, opts)

	// Canonical strings: rotate each truncated row to start at its m.s.p.
	truncStart := segRowStarts(m, truncHeads)
	canon := m.NewArray(truncB.Len())
	m.ParDo(truncB.Len(), func(c *pram.Ctx, p int) {
		row := int(c.Read(truncRow, p))
		start := int(c.Read(truncStart, p))
		pd := c.Read(periodArr, row)
		j := (c.Read(truncRel, p) + c.Read(msp, row)) % pd
		c.Write(canon, p, c.Read(truncB, start+int(j)))
	})

	// Cycle equivalence classes: ragged lockstep pair-coding fingerprint,
	// then dense renaming (Algorithm partition with the dictionary BB).
	classOf := fingerprintRows(m, canon, truncRow, truncHeads, k, opts)

	// Q-codes for cycle nodes: (class of cycle, offset from the m.s.p.
	// modulo the period).
	classEl := m.NewArray(nc)
	offEl := m.NewArray(nc)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		// p is the compact cycle index; find the arrangement row data.
		pos := int(c.Read(offsets, int(c.Read(leaderC, p))) + c.Read(rankC, p))
		row := int(c.Read(rowOfPos, pos))
		pd := c.Read(periodArr, row)
		off := (c.Read(rankC, p) - c.Read(msp, row)) % pd
		if off < 0 {
			off += pd
		}
		c.Write(classEl, p, c.Read(classOf, row))
		c.Write(offEl, p, off)
	})
	qcodeC := pram.PairCode(m, classEl, offEl)
	cy.qcode = m.NewArray(n)
	pram.Fill(m, cy.qcode, -1)
	m.ParDo(nc, func(c *pram.Ctx, p int) {
		c.Write(cy.qcode, int(c.Read(cycNodes, p)), c.Read(qcodeC, p))
	})
	return cy
}

// segRowStarts returns, per element, the position of its row's head.
func segRowStarts(m *pram.Machine, heads *pram.Array) *pram.Array {
	n := heads.Len()
	src := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(heads, p) != 0 {
			c.Write(src, p, int64(p))
		} else {
			c.Write(src, p, -1)
		}
	})
	return pram.SegmentedScanMax(m, src, heads)
}

// rowBroadcast scatters the value at each row's tail element into a
// row-indexed array and returns it (rows identified by rowIds, which must
// be dense in [0, k)).
func rowBroadcast(m *pram.Machine, vals, rowIds, heads *pram.Array, k int) *pram.Array {
	n := vals.Len()
	out := m.NewArray(k)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if p == n-1 || c.Read(heads, p+1) != 0 {
			c.Write(out, int(c.Read(rowIds, p)), c.Read(vals, p))
		}
	})
	return out
}

// batchedMSP runs the efficient-m.s.p. reduction (Steps 1–3 of Algorithm
// efficient m.s.p.) on every row of a ragged matrix in lockstep until each
// row's minimal starting point is decided, returning msp offsets per row
// (within the row, 0-based). Rows must be primitive (period == length);
// length-1 rows resolve to 0 immediately.
func batchedMSP(m *pram.Machine, valsIn, rowIn, headsIn, relIn *pram.Array, k int, opts ParallelOptions) *pram.Array {
	msp := m.NewArray(k)
	pram.Fill(m, msp, -1)
	n := valsIn.Len()
	if n == 0 {
		return msp
	}
	// Working state: shifted values, row ids, heads, and origins (the
	// element's starting offset within the original row).
	vals := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) { c.Write(vals, p, c.Read(valsIn, p)+1) })
	rows := m.NewArray(n)
	pram.Copy(m, rows, rowIn)
	heads := m.NewArray(n)
	pram.Copy(m, heads, headsIn)
	origin := m.NewArray(n)
	pram.Copy(m, origin, relIn)
	maxVal := pram.ReduceMax(m, vals)

	for vals.Len() > 0 {
		sz := vals.Len()
		// Row minima.
		minScan := pram.SegmentedScanMin(m, vals, heads)
		rowMin := rowBroadcast(m, minScan, rows, heads, k)
		// Row tail positions (for circular predecessor lookups).
		posIdx := m.NewArray(sz)
		pram.Iota(m, posIdx, 0)
		rowTail := rowBroadcast(m, posIdx, rows, heads, k)

		// Marking: first element of each run of the row minimum.
		marked := m.NewArray(sz)
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			row := int(c.Read(rows, p))
			mn := c.Read(rowMin, row)
			var prev int64
			if c.Read(heads, p) != 0 {
				prev = c.Read(vals, int(c.Read(rowTail, row)))
			} else {
				prev = c.Read(vals, p-1)
			}
			if c.Read(vals, p) == mn && prev != mn {
				c.Write(marked, p, 1)
			} else {
				c.Write(marked, p, 0)
			}
		})
		cntScan := pram.SegmentedScanSum(m, marked, heads)
		rowCnt := rowBroadcast(m, cntScan, rows, heads, k)

		// Rows with a unique candidate are done; rows with none (length 1
		// or constant) resolve to their head's origin.
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			row := int(c.Read(rows, p))
			cnt := c.Read(rowCnt, row)
			if cnt == 1 && c.Read(marked, p) != 0 {
				c.Write(msp, row, c.Read(origin, p))
			}
			if cnt == 0 && c.Read(heads, p) != 0 {
				c.Write(msp, row, c.Read(origin, p))
			}
		})

		// Drop finished rows.
		active := m.NewArray(sz)
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			if c.Read(rowCnt, int(c.Read(rows, p))) >= 2 {
				c.Write(active, p, 1)
			} else {
				c.Write(active, p, 0)
			}
		})
		vals = pram.Compact(m, vals, active)
		origin = pram.Compact(m, origin, active)
		rows = pram.Compact(m, rows, active)
		marked = pram.Compact(m, marked, active)
		heads = pram.Compact(m, heads, active)
		sz = vals.Len()
		if sz == 0 {
			break
		}

		// Rotate each remaining row so its first marked element leads.
		rowStart := segRowStarts(m, heads)
		firstMarkSrc := m.NewArray(sz)
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			if c.Read(marked, p) != 0 {
				c.Write(firstMarkSrc, p, -int64(p)) // max-scan of -p = min pos
			} else {
				c.Write(firstMarkSrc, p, int64(-1)<<40)
			}
		})
		fmScan := pram.SegmentedScanMax(m, firstMarkSrc, heads)
		rowFirstMark := rowBroadcast(m, fmScan, rows, heads, k)
		rowLenArr := m.NewArray(sz)
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			c.Write(rowLenArr, p, int64(p)-c.Read(rowStart, p)+1)
		})
		rowLen := rowBroadcast(m, rowLenArr, rows, heads, k)

		rvals := m.NewArray(sz)
		rorigin := m.NewArray(sz)
		rmarked := m.NewArray(sz)
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			row := int(c.Read(rows, p))
			start := c.Read(rowStart, p)
			ln := c.Read(rowLen, row)
			r0 := -c.Read(rowFirstMark, row) - start // relative first mark
			tgt := start + ((int64(p)-start)-r0+ln)%ln
			c.Write(rvals, int(tgt), c.Read(vals, p))
			c.Write(rorigin, int(tgt), c.Read(origin, p))
			c.Write(rmarked, int(tgt), c.Read(marked, p))
		})

		// Block decomposition and pairing.
		blockSrc := m.NewArray(sz)
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			if c.Read(rmarked, p) != 0 {
				c.Write(blockSrc, p, int64(p))
			} else {
				c.Write(blockSrc, p, -1)
			}
		})
		blockStart := pram.SegmentedScanMax(m, blockSrc, heads)
		pairHead := m.NewArray(sz)
		second := m.NewArray(sz)
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			off := int64(p) - c.Read(blockStart, p)
			if off%2 != 0 {
				c.Write(pairHead, p, 0)
				return
			}
			c.Write(pairHead, p, 1)
			sameBlock := p+1 < sz && c.Read(heads, p+1) == 0 && c.Read(blockStart, p+1) == c.Read(blockStart, p)
			if sameBlock {
				c.Write(second, p, c.Read(rvals, p+1))
			} else if opts.Pad == circ.PadMin {
				c.Write(second, p, c.Read(rowMin, int(c.Read(rows, p))))
			} else {
				c.Write(second, p, 0)
			}
		})
		firsts := pram.Compact(m, rvals, pairHead)
		seconds := pram.Compact(m, second, pairHead)
		norigin := pram.Compact(m, rorigin, pairHead)
		nrows := pram.Compact(m, rows, pairHead)
		nheads := pram.Compact(m, heads, pairHead)

		perm, packed := intsort.SortPairsPRAM(m, firsts, seconds, maxVal, opts.Sort)
		ranks, distinct := intsort.RankDistinct(m, packed, perm, 1)

		vals, origin, rows, heads, maxVal = ranks, norigin, nrows, nheads, distinct
	}
	return msp
}

// fingerprintRows assigns dense class labels to the rows of a ragged matrix
// such that two rows share a class iff they are identical strings. All rows
// are paired in lockstep ceil(log2 maxLen) times through the concurrent
// dictionary, so final single codes are comparable across rows of any
// lengths. O(n) work, O(log n) expected rounds.
func fingerprintRows(m *pram.Machine, valsIn, rowIn, headsIn *pram.Array, k int, opts ParallelOptions) *pram.Array {
	n := valsIn.Len()
	if n == 0 || k == 0 {
		return m.NewArray(k)
	}
	vals := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) { c.Write(vals, p, c.Read(valsIn, p)+1) })
	rows := m.NewArray(n)
	pram.Copy(m, rows, rowIn)
	heads := m.NewArray(n)
	pram.Copy(m, heads, headsIn)

	// Iterate until every row is a single element (lockstep; rows that
	// reach length 1 keep pairing with the blank).
	for vals.Len() > k {
		sz := vals.Len()
		rowStart := segRowStarts(m, heads)
		pairHead := m.NewArray(sz)
		second := m.NewArray(sz)
		m.ParDo(sz, func(c *pram.Ctx, p int) {
			off := int64(p) - c.Read(rowStart, p)
			if off%2 != 0 {
				c.Write(pairHead, p, 0)
				return
			}
			c.Write(pairHead, p, 1)
			if p+1 < sz && c.Read(heads, p+1) == 0 {
				c.Write(second, p, c.Read(vals, p+1))
			} else {
				c.Write(second, p, 0)
			}
		})
		firsts := pram.Compact(m, vals, pairHead)
		seconds := pram.Compact(m, second, pairHead)
		nrows := pram.Compact(m, rows, pairHead)
		nheads := pram.Compact(m, heads, pairHead)
		codes := pram.PairCode(m, firsts, seconds)
		vals = m.NewArray(codes.Len())
		m.ParDo(codes.Len(), func(c *pram.Ctx, p int) {
			c.Write(vals, p, c.Read(codes, p)+1)
		})
		rows, heads = nrows, nheads
	}
	// vals now has one code per row, in row order.
	codePerRow := m.NewArray(k)
	m.ParDo(k, func(c *pram.Ctx, p int) {
		c.Write(codePerRow, int(c.Read(rows, p)), c.Read(vals, p))
	})
	perm := intsort.SortPRAM(m, codePerRow, pram.TableSize(n)+2, opts.Sort)
	classOf, _ := intsort.RankDistinct(m, codePerRow, perm, 0)
	return classOf
}

// labelTrees implements Algorithm tree node labeling (Section 4) and
// returns a per-node key array: equal keys iff equal Q-labels.
func labelTrees(m *pram.Machine, fArr, bArr *pram.Array, forest *euler.Forest, cy *cycleLabeling, opts ParallelOptions) *pram.Array {
	n := fArr.Len()

	// Steps 1-2: mark tree nodes whose B-label matches the corresponding
	// cycle node (Lemma 4.1).
	marked0 := m.NewArray(n)
	correspQ := m.NewArray(n) // Q-code of the corresponding cycle node
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(forest.OnCycle, p) != 0 {
			c.Write(marked0, p, 1)
			c.Write(correspQ, p, c.Read(cy.qcode, p))
			return
		}
		r := int(c.Read(forest.Root, p))
		ci := int(c.Read(cy.cidx, r))
		k := c.Read(cy.lenC, ci)
		cr := (c.Read(cy.rankC, ci) - c.Read(forest.Level, p)) % k
		if cr < 0 {
			cr += k
		}
		pos := c.Read(cy.offsets, int(c.Read(cy.leaderC, ci))) + cr
		node := int(c.Read(cy.posNode, int(pos)))
		c.Write(correspQ, p, c.Read(cy.qcode, node))
		if c.Read(bArr, p) == c.Read(bArr, node) {
			c.Write(marked0, p, 1)
		} else {
			c.Write(marked0, p, 0)
		}
	})

	// Step 3: unmark all descendants of unmarked nodes, via ancestor
	// counting on the Euler-tour intervals.
	unmarked0 := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(forest.OnCycle, p) == 0 && c.Read(marked0, p) == 0 {
			c.Write(unmarked0, p, 1)
		} else {
			c.Write(unmarked0, p, 0)
		}
	})
	badAnc := forest.CountFlaggedAncestors(unmarked0)
	labeled := m.NewArray(n) // cycle nodes and finally-marked tree nodes
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(forest.OnCycle, p) != 0 ||
			(c.Read(marked0, p) != 0 && c.Read(badAnc, p) == 0) {
			c.Write(labeled, p, 1)
		} else {
			c.Write(labeled, p, 0)
		}
	})

	// Step 4: marked nodes take the cycle labels. Step 5: the unmarked
	// forest is coded by pointer jumping with pair codes (Lemma 4.2);
	// labeled nodes act as fixpoints carrying their (tagged) Q-code.
	tag := m.NewArray(n)
	val := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(labeled, p) != 0 {
			c.Write(tag, p, 1)
			c.Write(val, p, c.Read(correspQ, p))
		} else {
			c.Write(tag, p, 0)
			c.Write(val, p, c.Read(bArr, p))
		}
	})
	code := pram.PairCode(m, tag, val)
	jump := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(labeled, p) != 0 {
			c.Write(jump, p, int64(p))
		} else {
			c.Write(jump, p, c.Read(fArr, p))
		}
	})
	maxDepth := pram.ReduceMax(m, forest.Level)
	iters := bits.Len64(uint64(maxDepth+1)) + 1
	for it := 0; it < iters; it++ {
		// Every node re-codes each round — including the labeled fixpoints
		// (whose jump is themselves). Keeping fixpoint codes frozen would
		// mix codes from different dictionary generations inside one key,
		// where numerically-equal codes of different generations could
		// merge distinct paths; re-coding everyone keeps all compared
		// codes within a single generation, which is injective.
		codeAtJump := m.NewArray(n)
		pram.Gather(m, codeAtJump, code, jump)
		code = pram.PairCode(m, code, codeAtJump)
		nextJump := m.NewArray(n)
		m.ParDo(n, func(c *pram.Ctx, p int) {
			c.Write(nextJump, p, c.Read(jump, int(c.Read(jump, p))))
		})
		jump = nextJump
	}

	// Final keys: labeled nodes keyed by their Q-code, unmarked nodes by
	// their path code, kept in disjoint spaces by the tag component.
	finalTag := m.NewArray(n)
	finalVal := m.NewArray(n)
	m.ParDo(n, func(c *pram.Ctx, p int) {
		if c.Read(labeled, p) != 0 {
			c.Write(finalTag, p, 0)
			c.Write(finalVal, p, c.Read(correspQ, p))
		} else {
			c.Write(finalTag, p, 1)
			c.Write(finalVal, p, c.Read(code, p))
		}
	})
	return pram.PairCode(m, finalTag, finalVal)
}
