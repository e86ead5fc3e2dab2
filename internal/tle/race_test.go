//go:build race

package tle

// RaceEnabled reports whether the tests run under the race detector, which
// multiplies the cost of the single-goroutine codec sweeps without having
// anything to find in them.
const RaceEnabled = true
