// Fixture analyzed under the package path "sfcp/internal/pool": a slot
// wait or a batch pass under a context minted from Background ends
// neither with its caller nor with Close.
package pool

import "context"

type lanes struct {
	slots chan struct{}
}

func (l *lanes) run(ctx context.Context, solve func() error) error {
	wait := context.TODO() // want "a caller context is in scope; use it"
	select {
	case l.slots <- struct{}{}:
	case <-wait.Done():
		return wait.Err()
	}
	defer func() { <-l.slots }()
	return solve()
}

func (l *lanes) pass() {
	ctx := context.Background() // want "context.Background.. in request/job-scoped package"
	_ = ctx
}
