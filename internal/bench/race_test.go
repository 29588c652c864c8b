//go:build race

package bench

// raceEnabled reports whether the test binary runs under the race
// detector, whose slowdown skews timing-sensitive ceilings.
const raceEnabled = true
