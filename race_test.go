//go:build race

package sfcp

// raceEnabled skips allocation pins: the race detector's instrumentation
// moves values to the heap that a normal build keeps on the stack.
const raceEnabled = true
