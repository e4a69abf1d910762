package sfcp

// One testing.B benchmark per experiment of internal/bench (`sfcpbench
// -list` names them). Wall-clock is host time of the simulation; for the
// PRAM algorithms the interesting quantities are the custom metrics
// rounds and work (ops), reported via b.ReportMetric. Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"

	"sfcp/internal/circ"
	"sfcp/internal/coarsest"
	"sfcp/internal/intsort"
	"sfcp/internal/listrank"
	"sfcp/internal/partition"
	"sfcp/internal/pram"
	"sfcp/internal/strsort"
	"sfcp/internal/workload"
)

const benchSeed = 1993

// BenchmarkPlannerAuto measures a small AlgorithmAuto solve end to end:
// the plan plus the sequential linear solve it resolves to.
func BenchmarkPlannerAuto(b *testing.B) {
	wl := workload.RandomFunction(benchSeed, 1<<12, 3)
	ins := Instance{F: wl.F, B: wl.B}
	b.Run("auto-small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveWith(ins, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func reportPRAM(b *testing.B, stats pram.Stats, n int) {
	b.ReportMetric(float64(stats.Rounds), "rounds")
	b.ReportMetric(float64(stats.Work), "work")
	b.ReportMetric(float64(stats.Work)/float64(n), "work/n")
}

// BenchmarkE1ParallelTime regenerates experiment E1: parallel rounds of
// the full solver across sizes (Theorem 5.1, time bound).
func BenchmarkE1ParallelTime(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		wl := workload.RandomFunction(benchSeed, n, 3)
		ins := coarsest.Instance{F: wl.F, B: wl.B}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var stats pram.Stats
			for i := 0; i < b.N; i++ {
				stats = coarsest.ParallelPRAM(ins, coarsest.ParallelOptions{}).Stats
			}
			reportPRAM(b, stats, n)
		})
	}
}

// BenchmarkE2Work regenerates E2: operation counts (Theorem 5.1, work
// bound) on permutation inputs, the cycle-heavy regime.
func BenchmarkE2Work(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		wl := workload.RandomPermutation(benchSeed, n, 3)
		ins := coarsest.Instance{F: wl.F, B: wl.B}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var stats pram.Stats
			for i := 0; i < b.N; i++ {
				stats = coarsest.ParallelPRAM(ins, coarsest.ParallelOptions{}).Stats
			}
			reportPRAM(b, stats, n)
		})
	}
}

// BenchmarkE3MSP regenerates E3: the three m.s.p. algorithms (Lemma 3.7).
func BenchmarkE3MSP(b *testing.B) {
	n := 1 << 14
	s := workload.CircularString(benchSeed, n, 4)
	if circ.SmallestRepeatingPrefix(s) != n {
		s[0]++
	}
	b.Run("simple", func(b *testing.B) {
		var stats pram.Stats
		for i := 0; i < b.N; i++ {
			m := pram.New(pram.ArbitraryCRCW)
			c := m.NewArrayFromInts(s)
			m.ResetStats()
			circ.SimpleMSPPRAM(m, c)
			stats = m.Stats()
		}
		reportPRAM(b, stats, n)
	})
	b.Run("efficient", func(b *testing.B) {
		var stats pram.Stats
		for i := 0; i < b.N; i++ {
			m := pram.New(pram.ArbitraryCRCW)
			c := m.NewArrayFromInts(s)
			m.ResetStats()
			circ.EfficientMSPPRAM(m, c, circ.Options{})
			stats = m.Stats()
		}
		reportPRAM(b, stats, n)
	})
	b.Run("booth-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			circ.BoothMSP(s)
		}
	})
	b.Run("duval-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			circ.DuvalMSP(s)
		}
	})
}

// BenchmarkE4StringSort regenerates E4: Algorithm sorting strings vs the
// comparison network (Lemma 3.8).
func BenchmarkE4StringSort(b *testing.B) {
	n := 1 << 13
	strs := workload.StringList(benchSeed, n/16, n, 5)
	b.Run("paper", func(b *testing.B) {
		var stats pram.Stats
		for i := 0; i < b.N; i++ {
			m := pram.New(pram.ArbitraryCRCW)
			m.ResetStats()
			strsort.SortPRAM(m, strs, strsort.Options{})
			stats = m.Stats()
		}
		reportPRAM(b, stats, n)
	})
	b.Run("batcher", func(b *testing.B) {
		var stats pram.Stats
		for i := 0; i < b.N; i++ {
			m := pram.New(pram.ArbitraryCRCW)
			m.ResetStats()
			strsort.BatcherComparePRAM(m, strs)
			stats = m.Stats()
		}
		reportPRAM(b, stats, n)
	})
	b.Run("host", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strsort.HostSort(strs)
		}
	})
}

// BenchmarkE5CyclePartition regenerates E5: Algorithm partition vs
// all-pairs across cycle counts (Lemma 3.11).
func BenchmarkE5CyclePartition(b *testing.B) {
	n := 1 << 12
	for _, k := range []int{16, 128, 1024} {
		l := n / k
		ins := workload.DistinctCycles(benchSeed, k, l, 3)
		b.Run(fmt.Sprintf("pairing/k=%d", k), func(b *testing.B) {
			var stats pram.Stats
			for i := 0; i < b.N; i++ {
				m := pram.New(pram.ArbitraryCRCW)
				a := m.NewArrayFromInts(ins.B)
				m.ResetStats()
				partition.PairingPRAM(m, a, k, l, intsort.Modeled)
				stats = m.Stats()
			}
			reportPRAM(b, stats, n)
		})
		b.Run(fmt.Sprintf("allpairs/k=%d", k), func(b *testing.B) {
			var stats pram.Stats
			for i := 0; i < b.N; i++ {
				m := pram.New(pram.ArbitraryCRCW)
				a := m.NewArrayFromInts(ins.B)
				m.ResetStats()
				partition.AllPairsPRAM(m, a, k, l, intsort.Modeled)
				stats = m.Stats()
			}
			reportPRAM(b, stats, n)
		})
	}
}

// BenchmarkE6TreeLabel regenerates E6: forest shapes (Lemma 4.3).
func BenchmarkE6TreeLabel(b *testing.B) {
	n := 1 << 12
	shapes := map[string]workload.Instance{
		"star":   workload.Star(benchSeed, n, 3),
		"random": workload.RandomFunction(benchSeed, n, 3),
		"broom":  workload.Broom(benchSeed, n, 16, 8),
		"chain":  workload.Broom(benchSeed, n, 4, 1),
	}
	for name, wl := range shapes {
		ins := coarsest.Instance{F: wl.F, B: wl.B}
		b.Run(name, func(b *testing.B) {
			var stats pram.Stats
			for i := 0; i < b.N; i++ {
				stats = coarsest.ParallelPRAM(ins, coarsest.ParallelOptions{}).Stats
			}
			reportPRAM(b, stats, n)
		})
	}
}

// BenchmarkE7AlgorithmComparison regenerates E7: the paper vs the prior
// parallel baselines vs the sequential solvers.
func BenchmarkE7AlgorithmComparison(b *testing.B) {
	n := 1 << 12
	wl := workload.RandomFunction(benchSeed, n, 3)
	ins := coarsest.Instance{F: wl.F, B: wl.B}
	b.Run("paper-pram", func(b *testing.B) {
		var stats pram.Stats
		for i := 0; i < b.N; i++ {
			stats = coarsest.ParallelPRAM(ins, coarsest.ParallelOptions{}).Stats
		}
		reportPRAM(b, stats, n)
	})
	b.Run("gi-shape", func(b *testing.B) {
		var stats pram.Stats
		for i := 0; i < b.N; i++ {
			stats = coarsest.DoublingHashPRAM(ins, coarsest.ParallelOptions{}).Stats
		}
		reportPRAM(b, stats, n)
	})
	b.Run("srikant-shape", func(b *testing.B) {
		var stats pram.Stats
		for i := 0; i < b.N; i++ {
			stats = coarsest.DoublingSortPRAM(ins, coarsest.ParallelOptions{}).Stats
		}
		reportPRAM(b, stats, n)
	})
	b.Run("moore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coarsest.Moore(ins)
		}
	})
	b.Run("hopcroft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coarsest.Hopcroft(ins)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coarsest.LinearSequentialScratch(ins, nil)
		}
	})
}

// BenchmarkE10BBMemory regenerates E10: cells of the literal BB table vs
// the dictionary (Remark §3.2).
func BenchmarkE10BBMemory(b *testing.B) {
	k, l := 64, 8
	ins := workload.DistinctCycles(benchSeed, k, l, 3)
	b.Run("bbtable", func(b *testing.B) {
		var cells int64
		for i := 0; i < b.N; i++ {
			m := pram.New(pram.ArbitraryCRCW)
			a := m.NewArrayFromInts(ins.B)
			m.ResetStats()
			partition.BBTablePRAM(m, a, k, l, intsort.Modeled)
			cells = m.Stats().Cells
		}
		b.ReportMetric(float64(cells), "cells")
	})
	b.Run("dictionary", func(b *testing.B) {
		var cells int64
		for i := 0; i < b.N; i++ {
			m := pram.New(pram.ArbitraryCRCW)
			a := m.NewArrayFromInts(ins.B)
			m.ResetStats()
			partition.PairingPRAM(m, a, k, l, intsort.Modeled)
			cells = m.Stats().Cells
		}
		b.ReportMetric(float64(cells), "cells")
	})
}

// BenchmarkA1RadixWidth regenerates ablation A1: integer sorting
// strategies.
func BenchmarkA1RadixWidth(b *testing.B) {
	n := 1 << 13
	raw := workload.CircularString(benchSeed, n, n)
	keys := make([]int64, n)
	for i, v := range raw {
		keys[i] = int64(v)
	}
	for _, strat := range []intsort.Strategy{intsort.Modeled, intsort.BitSplit, intsort.Grouped} {
		b.Run(strat.String(), func(b *testing.B) {
			var stats pram.Stats
			for i := 0; i < b.N; i++ {
				m := pram.New(pram.ArbitraryCRCW)
				a := m.NewArrayFrom(keys)
				m.ResetStats()
				intsort.SortPRAM(m, a, int64(n), strat)
				stats = m.Stats()
			}
			reportPRAM(b, stats, n)
		})
	}
}

// BenchmarkA2ListRank regenerates ablation A2: Wyllie vs ruling set.
func BenchmarkA2ListRank(b *testing.B) {
	n := 1 << 14
	next := make([]int, n)
	for i := range next {
		next[i] = (i + 1) % n
	}
	for _, method := range []listrank.Method{listrank.Wyllie, listrank.RulingSet} {
		b.Run(method.String(), func(b *testing.B) {
			var stats pram.Stats
			for i := 0; i < b.N; i++ {
				m := pram.New(pram.ArbitraryCRCW)
				a := m.NewArrayFromInts(next)
				m.ResetStats()
				listrank.CycleRank(m, a, method)
				stats = m.Stats()
			}
			reportPRAM(b, stats, n)
		})
	}
}

// BenchmarkA3Cutoff regenerates ablation A3: the Step-4 switch point.
func BenchmarkA3Cutoff(b *testing.B) {
	n := 1 << 13
	s := workload.CircularString(benchSeed, n, 4)
	if circ.SmallestRepeatingPrefix(s) != n {
		s[0]++
	}
	for _, co := range []struct {
		name string
		val  int
	}{{"simple-only", n}, {"paper-n-over-logn", n / 13}, {"exhaustive", 1}} {
		b.Run(co.name, func(b *testing.B) {
			var stats pram.Stats
			for i := 0; i < b.N; i++ {
				m := pram.New(pram.ArbitraryCRCW)
				c := m.NewArrayFromInts(s)
				m.ResetStats()
				circ.EfficientMSPPRAMWithCutoff(m, c, circ.Options{}, co.val)
				stats = m.Stats()
			}
			reportPRAM(b, stats, n)
		})
	}
}

// BenchmarkSolveFacade measures the public API end to end.
func BenchmarkSolveFacade(b *testing.B) {
	n := 1 << 16
	wl := workload.RandomFunction(benchSeed, n, 3)
	b.Run("auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Solve(wl.F, wl.B); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInstanceDigest measures content-addressing throughput — the
// fixed cost every cache-hit request pays before it can be served.
func BenchmarkInstanceDigest(b *testing.B) {
	n := 1 << 18
	wl := workload.RandomFunction(benchSeed, n, 3)
	ins := Instance{F: wl.F, B: wl.B}
	b.ReportAllocs()
	b.SetBytes(int64(2 * n * 8))
	for i := 0; i < b.N; i++ {
		ins.Digest()
	}
}
