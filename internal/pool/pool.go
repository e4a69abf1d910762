// Package pool bounds how many solves run at once. Each concrete
// algorithm has a lane of slots: a solve takes one slot of its resolved
// algorithm, runs on the goroutine that asked for it, and gives the slot
// back when it returns. A burst of slow simulator solves (parallel-pram
// on a huge instance) therefore fills only its own lane and cannot
// starve the cheap sequential ones. Waiting for a slot ends with the
// caller's context or with Close. A pool starts no goroutine.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sfcp"
)

// ErrShutdown is returned once the pool is closed. Its text is what
// sfcpd's 503 answers carry.
var ErrShutdown = errors.New("server: pool shut down")

// Pool is one lane of slots per concrete algorithm. Create one with New;
// Close releases it.
type Pool struct {
	// lanes holds one counting semaphore per concrete algorithm: a token
	// in the channel is a slot in use.
	lanes map[sfcp.Algorithm]chan struct{}
	// done is closed by Close, which fails every slot waiter.
	done      chan struct{}
	closeOnce sync.Once
}

// New gives every concrete algorithm a lane of slotsPerAlgo slots.
func New(slotsPerAlgo int) *Pool {
	p := &Pool{
		lanes: map[sfcp.Algorithm]chan struct{}{},
		done:  make(chan struct{}),
	}
	for _, algo := range sfcp.Algorithms() {
		// Solves arrive planner-resolved, so "auto" never takes a slot.
		if algo != sfcp.AlgorithmAuto {
			p.lanes[algo] = make(chan struct{}, slotsPerAlgo)
		}
	}
	return p
}

// Run takes a slot of algo's lane, calls run on the calling goroutine,
// and gives the slot back when run returns. While it waits for a slot it
// fails with ctx's error once ctx ends, and with ErrShutdown once the
// pool is closed; in either case run is never called. run should honour
// the caller's context itself: the slot is held until it returns.
func (p *Pool) Run(ctx context.Context, algo sfcp.Algorithm, run func() error) error {
	lane, ok := p.lanes[algo]
	if !ok {
		return fmt.Errorf("pool: no lane for algorithm %v", algo)
	}
	select {
	case lane <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		return ErrShutdown
	}
	defer func() { <-lane }()
	// The select above is unbiased, so a slot can be won after Close
	// began or after ctx ended. Such a win gives the slot back unused.
	if p.closed() {
		return ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return run()
}

// closed reports whether Close has begun, without taking a lock.
func (p *Pool) closed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Close fails every slot waiter, then takes every slot of every lane,
// which waits for the solves holding them, and keeps the slots, so a
// later solve fails at once. Any other Close returns once the first has.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.done)
		for _, lane := range p.lanes {
			for range cap(lane) {
				lane <- struct{}{}
			}
		}
	})
}
