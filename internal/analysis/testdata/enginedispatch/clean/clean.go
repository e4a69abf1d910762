// Fixture analyzed under the package path "sfcp": the dispatch table
// owner may invoke any solver entry point.
package sfcp

import "sfcp/internal/coarsest"

func dispatchRow(in coarsest.Instance) []int {
	return coarsest.Hopcroft(in)
}

func anotherRow(in coarsest.Instance, sc *coarsest.Scratch) ([]int, int) {
	return coarsest.LinearSequentialScratch(in, sc)
}
