//go:build !race

package pmproxy

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it (the detector's instrumentation
// allocates on its own).
const raceEnabled = false
