//go:build race

package pcp

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
