//go:build !race

package tle

// RaceEnabled reports whether the tests run under the race detector.
const RaceEnabled = false
