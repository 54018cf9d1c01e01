// Package workload is the workload model, in virtual time only: it turns
// a declarative spec — client cohorts, per-window rate curves,
// multi-period diurnal patterns, heavy-tailed request mixes over
// live/proxied/archive/derived queries — into a deterministic stream of
// requests (Arrivals), runs that stream through a discrete-event engine
// and a queueing service model (millions of concurrent clients, faster
// than real time), records runs to a compact replayable trace, and
// sweeps configurations into a capacity report with knee-point
// detection. It touches no socket and no wall clock; driving a real tier
// with the same stream is internal/loadgen's job.
//
// Determinism is the sweep package's contract extended to clients: every
// client draws from its own sweep.Seed2(spec.Seed, cohort, client)
// substream, the service model draws from its own substream in issue
// order, and the virtual-time event loop breaks ties deterministically —
// so a simulation of a million clients is byte-identical across runs and
// across host machines of the same platform.
package workload

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"papimc/internal/simtime"
)

// ErrSpec is wrapped by every spec validation failure, so callers can
// errors.Is a bad spec apart from I/O or engine errors.
var ErrSpec = errors.New("workload: invalid spec")

// Class is the query class a request exercises, mirroring the serving
// tiers the stack exposes: direct daemon fetches, proxied fetches,
// archive range reads, and derived-metric (metricql) evaluations.
type Class uint8

// Query classes, in mix-weight order.
const (
	Live Class = iota
	Proxied
	Archive
	Derived
	NumClasses
)

// String names the class as it appears in specs and reports.
func (c Class) String() string {
	switch c {
	case Live:
		return "live"
	case Proxied:
		return "proxied"
	case Archive:
		return "archive"
	case Derived:
		return "derived"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Mix is the request-class distribution of a cohort. Weights are
// relative; they need not sum to 1.
type Mix struct {
	Live    float64 `json:"live"`
	Proxied float64 `json:"proxied"`
	Archive float64 `json:"archive"`
	Derived float64 `json:"derived"`
}

func (m Mix) weights() [NumClasses]float64 {
	return [NumClasses]float64{m.Live, m.Proxied, m.Archive, m.Derived}
}

func (m Mix) total() float64 { return m.Live + m.Proxied + m.Archive + m.Derived }

// SizeSpec is the heavy-tailed request-size distribution: the number of
// metrics one request touches follows a bounded Pareto — Min × U^(-1/Alpha)
// clamped to Max — so most requests are small and a tail of requests
// sweeps wide metric sets, which is what makes p99s interesting.
type SizeSpec struct {
	Min   int     `json:"min"`             // smallest request, metrics; default 1
	Alpha float64 `json:"alpha,omitempty"` // Pareto tail index; 0 means fixed at Min
	Max   int     `json:"max,omitempty"`   // clamp; default 64
}

// Harmonic is one sinusoidal term of a cohort's diurnal pattern: the
// rate is modulated by 1 + Amplitude·sin(2π(t/Period + Phase)), and
// multiple harmonics (a daily cycle plus an hourly ripple) superpose.
type Harmonic struct {
	Period    simtime.Duration `json:"period"`
	Amplitude float64          `json:"amplitude"`
	Phase     float64          `json:"phase,omitempty"` // fraction of a period
}

// Window is one step of a cohort's piecewise-constant rate curve: from
// Start onward the base rate is scaled by Mult, until the next window.
type Window struct {
	Start simtime.Duration `json:"start"`
	Mult  float64          `json:"mult"`
}

// CohortSpec describes one client population: how many concurrent
// clients it holds, the aggregate arrival rate they produce, what they
// ask for, and how their rate moves over the run.
type CohortSpec struct {
	Name    string     `json:"name"`
	Clients int        `json:"clients"`
	Rate    float64    `json:"rate"` // aggregate requests/second at multiplier 1
	Mix     Mix        `json:"mix"`
	Size    SizeSpec   `json:"size"`
	Diurnal []Harmonic `json:"diurnal,omitempty"`
	Windows []Window   `json:"windows,omitempty"`
}

// envelope returns the cohort's peak rate multiplier: the largest value
// windowMult(t)·diurnal(t) can reach. The thinning sampler draws
// candidate arrivals at Rate×envelope and accepts with the true ratio.
func (c *CohortSpec) envelope() float64 {
	wmax := 1.0
	for _, w := range c.Windows {
		if w.Mult > wmax {
			wmax = w.Mult
		}
	}
	amp := 1.0
	for _, h := range c.Diurnal {
		amp += math.Abs(h.Amplitude)
	}
	return wmax * amp
}

// modulation returns the rate multiplier at virtual time t (≥ 0, ≤
// envelope): the active window's Mult times the diurnal superposition,
// clamped at zero so deep troughs mean silence, not negative rates.
func (c *CohortSpec) modulation(t simtime.Time) float64 {
	m := 1.0
	for _, w := range c.Windows {
		if simtime.Duration(t) >= w.Start {
			m = w.Mult
		} else {
			break
		}
	}
	d := 1.0
	for _, h := range c.Diurnal {
		d += h.Amplitude * math.Sin(2*math.Pi*(float64(t)/float64(h.Period)+h.Phase))
	}
	if d < 0 {
		d = 0
	}
	return m * d
}

// ServerSpec is the deterministic service model the virtual-time engine
// runs requests through: Servers parallel service slots, a mean service
// time of Base for a request of SizeRef metrics (service time scales
// linearly with request size), with bounded uniform jitter. Capacity is
// therefore Servers/Base·(SizeRef/meanSize) requests per second — finite,
// so offered load beyond it produces the knee the capacity analyzer
// looks for.
type ServerSpec struct {
	Servers int              `json:"servers"`
	Base    simtime.Duration `json:"base"`
	Jitter  float64          `json:"jitter,omitempty"`
	SizeRef float64          `json:"sizeref,omitempty"`
}

// Spec is one declarative workload: a named, seeded set of cohorts over
// a service model, bounded by a virtual-time horizon.
type Spec struct {
	Name     string           `json:"name"`
	Seed     uint64           `json:"seed"`
	Duration simtime.Duration `json:"duration"`
	Server   ServerSpec       `json:"server"`
	Cohorts  []CohortSpec     `json:"cohorts"`
}

func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
}

// Validate applies defaults and rejects inconsistent specs with errors
// wrapping ErrSpec. It is idempotent; parsers call it, and callers that
// build Specs in code should too.
func (s *Spec) Validate() error {
	if s.Name == "" {
		s.Name = "workload"
	}
	if s.Duration <= 0 {
		s.Duration = simtime.Duration(60) * simtime.Second
	}
	if s.Server.Servers == 0 {
		s.Server.Servers = 8
	}
	if s.Server.Servers < 0 {
		return specErr("server.servers %d is negative", s.Server.Servers)
	}
	if s.Server.Base == 0 {
		s.Server.Base = 500 * simtime.Microsecond
	}
	if s.Server.Base < 0 {
		return specErr("server.base %v is negative", s.Server.Base)
	}
	if s.Server.Jitter < 0 || s.Server.Jitter >= 1 {
		return specErr("server.jitter %g outside [0, 1)", s.Server.Jitter)
	}
	if s.Server.SizeRef == 0 {
		s.Server.SizeRef = 8
	}
	if s.Server.SizeRef < 0 {
		return specErr("server.sizeref %g is negative", s.Server.SizeRef)
	}
	if len(s.Cohorts) == 0 {
		return specErr("no cohorts")
	}
	names := make(map[string]int, len(s.Cohorts))
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.Name == "" {
			return specErr("cohort %d has no name", i)
		}
		if prev, dup := names[c.Name]; dup {
			return specErr("cohorts %d and %d share the name %q", prev, i, c.Name)
		}
		names[c.Name] = i
		if c.Clients <= 0 {
			return specErr("cohort %q: clients %d must be positive", c.Name, c.Clients)
		}
		if c.Rate <= 0 {
			return specErr("cohort %q: rate %g must be positive", c.Name, c.Rate)
		}
		if c.Mix.Live < 0 || c.Mix.Proxied < 0 || c.Mix.Archive < 0 || c.Mix.Derived < 0 {
			return specErr("cohort %q: negative mix weight", c.Name)
		}
		if c.Mix.total() == 0 {
			c.Mix.Live = 1
		}
		if c.Size.Min == 0 {
			c.Size.Min = 1
		}
		if c.Size.Min < 0 {
			return specErr("cohort %q: size.min %d is negative", c.Name, c.Size.Min)
		}
		if c.Size.Max == 0 {
			c.Size.Max = 64
		}
		if c.Size.Max < c.Size.Min {
			return specErr("cohort %q: size.max %d below size.min %d", c.Name, c.Size.Max, c.Size.Min)
		}
		if c.Size.Alpha < 0 {
			return specErr("cohort %q: size.alpha %g is negative", c.Name, c.Size.Alpha)
		}
		for j, h := range c.Diurnal {
			if h.Period <= 0 {
				return specErr("cohort %q: diurnal[%d] period %v must be positive", c.Name, j, h.Period)
			}
		}
		for j, w := range c.Windows {
			if w.Start < 0 {
				return specErr("cohort %q: windows[%d] start %v is negative", c.Name, j, w.Start)
			}
			if w.Mult < 0 {
				return specErr("cohort %q: windows[%d] mult %g is negative", c.Name, j, w.Mult)
			}
			if j > 0 && w.Start <= c.Windows[j-1].Start {
				return specErr("cohort %q: windows[%d] start %v not after windows[%d]", c.Name, j, w.Start, j-1)
			}
		}
	}
	return nil
}

// TotalClients sums the cohort populations.
func (s *Spec) TotalClients() int {
	n := 0
	for i := range s.Cohorts {
		n += s.Cohorts[i].Clients
	}
	return n
}

// String renders the validated spec in a canonical normalized form —
// every default made explicit — which the golden spec-parse test diffs.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s seed=%d duration=%v\n", s.Name, s.Seed, s.Duration)
	fmt.Fprintf(&b, "  server servers=%d base=%v jitter=%g sizeref=%g\n",
		s.Server.Servers, s.Server.Base, s.Server.Jitter, s.Server.SizeRef)
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		fmt.Fprintf(&b, "  cohort %s clients=%d rate=%g envelope=%.4g\n", c.Name, c.Clients, c.Rate, c.envelope())
		fmt.Fprintf(&b, "    mix live=%g proxied=%g archive=%g derived=%g\n",
			c.Mix.Live, c.Mix.Proxied, c.Mix.Archive, c.Mix.Derived)
		fmt.Fprintf(&b, "    size min=%d alpha=%g max=%d\n", c.Size.Min, c.Size.Alpha, c.Size.Max)
		for _, h := range c.Diurnal {
			fmt.Fprintf(&b, "    diurnal period=%v amplitude=%g phase=%g\n", h.Period, h.Amplitude, h.Phase)
		}
		for _, w := range c.Windows {
			fmt.Fprintf(&b, "    window start=%v mult=%g\n", w.Start, w.Mult)
		}
	}
	return b.String()
}
