//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation changes what
// the allocation test counts.
const raceEnabled = true
