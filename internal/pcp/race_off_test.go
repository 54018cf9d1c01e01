//go:build !race

package pcp

// raceEnabled reports whether the race detector is compiled in; the
// over-the-wire allocation guard skips under it (the detector's
// instrumentation of the goroutine hand-offs allocates on its own).
const raceEnabled = false
