// Fixture analyzed under the package path "sfcp/internal/pool": a mutex
// held across a slot wait, a solve or a result delivery convoys every
// other caller behind one solve.
package pool

import "sync"

type lanes struct {
	mu      sync.Mutex
	slots   chan struct{}
	waiting int
}

func (l *lanes) acquireUnderLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waiting++
	l.slots <- struct{}{} // want "channel send while l.mu is locked"
	l.waiting--
}

func (l *lanes) solveUnderLock(solveBatch func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return solveBatch() // want "solver invocation solveBatch while l.mu is locked"
}

func (l *lanes) deliverUnderLock(resC chan error, err error) {
	l.mu.Lock()
	resC <- err // want "channel send while l.mu is locked"
	l.mu.Unlock()
}
