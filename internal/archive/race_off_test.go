//go:build !race

package archive

// raceEnabled reports whether the race detector is compiled in; the
// raw-window allocation guard skips under it (the detector's
// instrumentation allocates on its own).
const raceEnabled = false
