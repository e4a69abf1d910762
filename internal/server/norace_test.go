//go:build !race

package server

// raceEnabled is false in normal builds, so allocation pins run; see
// race_test.go.
const raceEnabled = false
