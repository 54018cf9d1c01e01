//go:build race

package archive

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
