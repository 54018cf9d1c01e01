//go:build !race

package cluster

// raceEnabled reports whether the race detector is compiled in; the
// scatter allocation ceiling is higher under it (the detector's
// instrumentation allocates on its own, per goroutine started).
const raceEnabled = false
