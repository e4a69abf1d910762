// Fixture analyzed under the package path "sfcp/internal/other": a
// package other than sfcp reaching for solver entry points.
package other

import "sfcp/internal/coarsest"

func solveDirectly(in coarsest.Instance) []int {
	return coarsest.Hopcroft(in) // want "direct use of coarsest.Hopcroft"
}

func solverValueEscapes() func(coarsest.Instance) []int {
	f := coarsest.LinearSequential // want "direct use of coarsest.LinearSequential"
	return f
}

func scratchSolve(in coarsest.Instance, sc *coarsest.Scratch) []int {
	labels, _ := coarsest.LinearSequentialScratch(in, sc) // want "direct use of coarsest.LinearSequentialScratch"
	return labels
}

func helpersAreFine(labels []int) int {
	// Non-solver helpers stay usable everywhere.
	return coarsest.NumClasses(labels)
}

func suppressedBaseline(in coarsest.Instance) []int {
	//sfcpvet:ignore enginedispatch -- fixture: a measured baseline, like the bench harness
	return coarsest.Moore(in)
}
