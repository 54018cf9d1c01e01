//go:build race

package pmproxy

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
