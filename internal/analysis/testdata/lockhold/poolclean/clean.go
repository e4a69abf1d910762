// Fixture analyzed under the package path "sfcp/internal/pool": counts
// change under the mutex, and the slot wait and the solve happen with
// no lock held.
package pool

import "sync"

type lanes struct {
	mu      sync.Mutex
	slots   chan struct{}
	waiting int
}

func (l *lanes) run(solve func() error) error {
	l.mu.Lock()
	l.waiting++
	l.mu.Unlock()
	l.slots <- struct{}{}
	l.mu.Lock()
	l.waiting--
	l.mu.Unlock()
	defer func() { <-l.slots }()
	return solve()
}
