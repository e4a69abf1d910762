// Fixture analyzed under the package path "sfcp/internal/other": the
// incremental entry point is guarded like the coarsest solvers.
package other

import "sfcp/internal/incr"

func buildDirectly(f, b []int) (*incr.State, error) {
	return incr.Build(struct{ F, B []int }{f, b}) // want "direct use of incr.Build"
}

func buildValueEscapes() any {
	g := incr.Build // want "direct use of incr.Build"
	return g
}

func typesAreFine(e incr.Edit) incr.Info {
	// The Edit/Info value types stay usable everywhere; only the
	// state constructor is package sfcp's.
	return incr.Info{DirtyNodes: e.Node}
}

func suppressedBuild(f, b []int) (*incr.State, error) {
	//sfcpvet:ignore enginedispatch -- fixture: calibration fits the raw machinery
	return incr.Build(struct{ F, B []int }{f, b})
}
