//go:build !race

package phy

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
