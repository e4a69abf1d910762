//go:build !race

package sfcp

// raceEnabled is false in normal builds, so allocation pins run; see
// race_test.go.
const raceEnabled = false
