//go:build !race

package main

// raceSlowdown stretches the schema test's windows under the race
// detector; without it they stay as they are.
const raceSlowdown = 1
