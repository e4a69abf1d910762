// Quickstart: solve the paper's own instance (Example 2.2 / Fig. 1 of
// JáJá & Ryu) with the public API and compare every solver.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sfcp"
)

func main() {
	// Example 2.2, converted to 0-based indexing. The graph (Fig. 1) is
	// two cycles: C = (1 2 4 8 3 6 12 11 9 5 10 7) of length 12 and
	// D = (13 14 15 16) of length 4 (paper numbering).
	af := []int{2, 4, 6, 8, 10, 12, 1, 3, 5, 7, 9, 11, 14, 15, 16, 13}
	ab := []int{1, 2, 1, 1, 2, 2, 3, 3, 1, 1, 3, 1, 1, 2, 1, 3}
	f := make([]int, len(af))
	for i, v := range af {
		f[i] = v - 1
	}

	labels, err := sfcp.Solve(f, ab)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("input f (1-based):", af)
	fmt.Println("input B labels:   ", ab)
	fmt.Println("coarsest partition labels:", labels)
	fmt.Println("number of classes:", sfcp.NumClasses(labels))

	// Every solver must produce the same partition; the PRAM solver also
	// reports the complexity counters of Theorem 5.1.
	for _, alg := range []sfcp.Algorithm{
		sfcp.AlgorithmMoore, sfcp.AlgorithmHopcroft, sfcp.AlgorithmLinear,
		sfcp.AlgorithmParallelPRAM,
	} {
		res, err := sfcp.SolveWith(sfcp.Instance{F: f, B: ab}, sfcp.Options{Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		line := fmt.Sprintf("%-16s -> %d classes, agrees=%v",
			alg, res.NumClasses, sfcp.SamePartition(res.Labels, labels))
		if res.Stats != nil {
			line += fmt.Sprintf(" (PRAM: %d rounds, %d operations)", res.Stats.Rounds, res.Stats.Work)
		}
		fmt.Println(line)
	}
}
