//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
