//go:build race

package server

// raceEnabled skips allocation pins: the race detector moves values to
// the heap that a normal build keeps on the stack, and sync.Pool drops a
// random share of what is put back.
const raceEnabled = true
