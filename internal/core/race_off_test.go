//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in (its
// instrumentation allocates, invalidating allocation assertions).
const raceEnabled = false
