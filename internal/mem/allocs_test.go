package mem

import (
	"testing"

	"papimc/internal/simtime"
)

// The controller's read path sits inside every counter collection sweep;
// these guards pin its steady-state allocation behavior at zero so a
// regression shows up as a test failure, not a profile surprise.

func TestReadIntoDoesNotAllocate(t *testing.T) {
	c, _ := noisyController(7)
	c.AddTraffic(true, 0, 1<<20, 0, 0)
	c.AddTraffic(false, 0, 1<<19, 0, 0)
	t0 := simtime.Time(simtime.Second)
	dst := c.ReadInto(t0, nil)
	if got := testing.AllocsPerRun(100, func() {
		dst = c.ReadInto(t0, dst)
	}); got != 0 {
		t.Errorf("ReadInto allocates %.1f objects per run, want 0", got)
	}
}

func TestTotalsDoesNotAllocate(t *testing.T) {
	c, _ := noisyController(7)
	c.AddTraffic(true, 0, 1<<20, 0, 0)
	t0 := simtime.Time(simtime.Second)
	c.Totals(t0) // fold pending events once
	if got := testing.AllocsPerRun(100, func() {
		c.Totals(t0)
	}); got != 0 {
		t.Errorf("Totals allocates %.1f objects per run, want 0", got)
	}
}

func TestAddTrafficSteadyStateDoesNotAllocate(t *testing.T) {
	c, _ := noisyController(7)
	// Warm up the bucket free list so the steady state recycles.
	for i := 0; i < 64; i++ {
		c.AddTraffic(true, int64(i)*64, 4096, 0, 0)
	}
	c.ReadInto(simtime.Time(simtime.Second), nil)
	if got := testing.AllocsPerRun(1000, func() {
		c.AddTraffic(true, 0, 4096, 0, 0)
	}); got != 0 {
		t.Errorf("AddTraffic allocates %.1f objects per run, want 0", got)
	}
}
