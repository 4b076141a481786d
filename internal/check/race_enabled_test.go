//go:build race

package check

// raceEnabled reports whether the race detector is compiled in. The
// explorations are single-goroutine, so family-wide audits gain nothing
// from its ~20× slowdown and run on a subset under it.
const raceEnabled = true
