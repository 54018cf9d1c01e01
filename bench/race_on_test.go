//go:build race

package main

// raceSlowdown stretches the schema test's windows under the race
// detector, where one archive_mixed refresh outlasts a 40 ms window
// several times over.
const raceSlowdown = 8
