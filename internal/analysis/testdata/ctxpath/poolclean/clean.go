// Fixture analyzed under the package path "sfcp/internal/pool": the
// pool's one lifecycle root carries its suppression, a slot wait ends
// with the caller's context or with that root, and batch passes run
// under the root.
package pool

import "context"

type lanes struct {
	slots  chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
}

func newLanes(k int) *lanes {
	//sfcpvet:ignore ctxpath -- fixture: the pool's lifecycle root, cancelled in close
	ctx, cancel := context.WithCancel(context.Background())
	return &lanes{slots: make(chan struct{}, k), ctx: ctx, cancel: cancel}
}

func (l *lanes) run(ctx context.Context, solve func() error) error {
	select {
	case l.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-l.ctx.Done():
		return l.ctx.Err()
	}
	defer func() { <-l.slots }()
	return solve()
}

func (l *lanes) pass(solveBatch func(context.Context) error) error {
	return solveBatch(l.ctx)
}
