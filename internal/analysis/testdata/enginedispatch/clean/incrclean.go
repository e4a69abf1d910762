// Fixture analyzed under the package path "sfcp": the root package owns
// the incremental entry point too.
package sfcp

import "sfcp/internal/incr"

func newIncrementalRow(f, b []int) (*incr.State, error) {
	return incr.Build(struct{ F, B []int }{f, b})
}
