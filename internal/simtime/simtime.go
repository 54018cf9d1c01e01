// Package simtime provides the simulated clock used by the hardware models.
//
// All timing in the simulator is virtual: workloads advance a Clock by the
// duration their memory traffic and arithmetic would take on the modelled
// machine, and counters, noise generators and profilers read that clock.
// Nothing in the simulation depends on the wall clock, which keeps whole
// experiments deterministic and allows "50 runs of a 16-node job" to finish
// in milliseconds.
package simtime

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// UnmarshalJSON reads a duration from a time.ParseDuration string
// ("400us", "2m"). A bare number is rejected, because its unit would be
// a guess. Null leaves the duration unchanged.
func (d *Duration) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration %s is not a quoted string such as \"400us\"", data)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("duration %q: %w", s, err)
	}
	*d = Duration(v.Nanoseconds())
	return nil
}

// String renders the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// FromSeconds converts seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Clock is a monotonically advancing simulated clock, safe for concurrent
// use. The zero value is a clock at time 0.
//
// The clock is lock-free: Now is a single atomic load, so hot read paths
// (the PMCD daemon consults the clock on every fetch) never contend with
// each other or with writers advancing simulated time.
type Clock struct {
	now atomic.Int64
}

// NewClock returns a clock starting at time 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() Time {
	return Time(c.now.Load())
}

// Advance moves the clock forward by d and returns the new time.
// Negative durations are ignored (the clock is monotonic).
func (c *Clock) Advance(d Duration) Time {
	if d <= 0 {
		return Time(c.now.Load())
	}
	return Time(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock to t if t is in the future; it never moves the
// clock backwards. It returns the (possibly unchanged) current time.
func (c *Clock) AdvanceTo(t Time) Time {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return Time(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}
