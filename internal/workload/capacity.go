// The capacity analyzer: sweep a spec's rate multiplier across the
// bandwidth–latency curve, run each operating point through the
// virtual-time engine, and find the knee — the point where the tier
// stops absorbing offered load (throughput-to-arrival ratio below
// threshold) or its p99 cliffs relative to the unloaded baseline. The
// sweep fans out through sweep.Map with per-point determinism, so the
// report is byte-identical at any worker count.
package workload

import (
	"fmt"
	"strings"

	"papimc/internal/simtime"
	"papimc/internal/sweep"
)

// CapacityOptions tune a capacity sweep.
type CapacityOptions struct {
	// Mults are the rate multipliers to sweep; default {0.25, 0.5, 1, 2, 4}.
	Mults []float64
	// Workers parallelizes the sweep points (sweep.Workers semantics).
	Workers int
	// KneeRatio is the throughput-to-arrival ratio below which a point
	// saturates; default 0.99.
	KneeRatio float64
	// CliffFactor flags a p99 more than this many times the lowest
	// point's p99; default 10.
	CliffFactor float64
}

// CapacityPoint is one operating point of the curve.
type CapacityPoint struct {
	Mult     float64 `json:"mult"`
	Offered  float64 `json:"offered_per_sec"`
	Achieved float64 `json:"achieved_per_sec"`
	Ratio    float64 `json:"ratio"`
	Pending  int64   `json:"pending"`
	Errors   int64   `json:"errors"`
	P50      int64   `json:"p50_ns"`
	P90      int64   `json:"p90_ns"`
	P99      int64   `json:"p99_ns"`
	P999     int64   `json:"p999_ns"`
}

// CapacityReport is the swept curve plus the knee verdict.
type CapacityReport struct {
	Spec    string           `json:"spec"`
	Seed    uint64           `json:"seed"`
	Horizon simtime.Duration `json:"horizon_ns"`
	Clients int              `json:"clients"`
	Points  []CapacityPoint  `json:"points"`
	// Knee indexes the first saturated point in Points, -1 if the sweep
	// never saturates.
	Knee       int    `json:"knee"`
	KneeReason string `json:"knee_reason,omitempty"`
}

// Capacity sweeps the spec across o.Mults and detects the knee.
func Capacity(spec *Spec, o CapacityOptions) (*CapacityReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(o.Mults) == 0 {
		o.Mults = []float64{0.25, 0.5, 1, 2, 4}
	}
	if o.KneeRatio == 0 {
		o.KneeRatio = 0.99
	}
	if o.CliffFactor == 0 {
		o.CliffFactor = 10
	}
	for i, m := range o.Mults {
		if m <= 0 {
			return nil, specErr("capacity mult[%d] = %g must be positive", i, m)
		}
		if i > 0 && m <= o.Mults[i-1] {
			return nil, specErr("capacity mults must be increasing (mult[%d] = %g)", i, m)
		}
	}
	points, err := sweep.Map(len(o.Mults), o.Workers, func(i int) (CapacityPoint, error) {
		rep, err := Run(spec, Options{Mult: o.Mults[i]})
		if err != nil {
			return CapacityPoint{}, err
		}
		return CapacityPoint{
			Mult:     rep.Mult,
			Offered:  rep.Offered,
			Achieved: rep.Achieved,
			Ratio:    rep.Ratio,
			Pending:  rep.Total.Pending,
			Errors:   rep.Total.Errors,
			P50:      rep.Total.P50,
			P90:      rep.Total.P90,
			P99:      rep.Total.P99,
			P999:     rep.Total.P999,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	cr := &CapacityReport{
		Spec:    spec.Name,
		Seed:    spec.Seed,
		Horizon: spec.Duration,
		Clients: spec.TotalClients(),
		Points:  points,
		Knee:    -1,
	}
	baseP99 := points[0].P99
	for i, p := range points {
		switch {
		case p.Ratio < o.KneeRatio:
			cr.Knee = i
			cr.KneeReason = fmt.Sprintf("throughput-to-arrival ratio %.3f < %.3f", p.Ratio, o.KneeRatio)
		case baseP99 > 0 && float64(p.P99) > o.CliffFactor*float64(baseP99):
			cr.Knee = i
			cr.KneeReason = fmt.Sprintf("p99 %s is %.1fx the %s baseline",
				fmtNs(p.P99), float64(p.P99)/float64(baseP99), fmtNs(baseP99))
		default:
			continue
		}
		break
	}
	return cr, nil
}

// Render formats the capacity report as an aligned, byte-deterministic
// text table with the knee verdict.
func (cr *CapacityReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity sweep: spec=%s seed=%d clients=%d horizon=%v\n",
		cr.Spec, cr.Seed, cr.Clients, cr.Horizon)
	fmt.Fprintf(&b, "%7s %12s %12s %7s %9s %9s %9s %9s %9s %5s\n",
		"mult", "offered/s", "achieved/s", "ratio", "pending", "p50", "p90", "p99", "p99.9", "knee")
	for i, p := range cr.Points {
		mark := ""
		if i == cr.Knee {
			mark = "<<"
		}
		fmt.Fprintf(&b, "%7.3g %12.1f %12.1f %7.3f %9d %9s %9s %9s %9s %5s\n",
			p.Mult, p.Offered, p.Achieved, p.Ratio, p.Pending,
			fmtNs(p.P50), fmtNs(p.P90), fmtNs(p.P99), fmtNs(p.P999), mark)
	}
	if cr.Knee >= 0 {
		fmt.Fprintf(&b, "knee at mult=%.3g: %s\n", cr.Points[cr.Knee].Mult, cr.KneeReason)
	} else {
		fmt.Fprintf(&b, "no knee found: tier absorbs every swept load\n")
	}
	return b.String()
}

// Render formats a single run report as an aligned, byte-deterministic
// text block.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed=%d mult=%g horizon=%v mode=virtual-time\n",
		r.Name, r.Seed, r.Mult, r.Horizon)
	fmt.Fprintf(&b, "%-14s %9s %9s %9s %8s %6s %9s %9s %9s %9s %9s\n",
		"cohort", "clients", "arrivals", "complete", "pending", "errs", "p50", "p90", "p99", "p99.9", "max")
	rows := append([]CohortResult{}, r.Cohorts...)
	rows = append(rows, r.Total)
	for _, c := range rows {
		fmt.Fprintf(&b, "%-14s %9d %9d %9d %8d %6d %9s %9s %9s %9s %9s\n",
			c.Name, c.Clients, c.Arrivals, c.Completed, c.Pending, c.Errors,
			fmtNs(c.P50), fmtNs(c.P90), fmtNs(c.P99), fmtNs(c.P999), fmtNs(c.MaxLat))
	}
	fmt.Fprintf(&b, "mix: live=%d proxied=%d archive=%d derived=%d\n",
		r.Total.ByClass[Live], r.Total.ByClass[Proxied], r.Total.ByClass[Archive], r.Total.ByClass[Derived])
	// Events is engine bookkeeping (thinning candidates), which a replay
	// cannot observe — it stays out of the render so run and replay of
	// the same stream render identically.
	fmt.Fprintf(&b, "offered %.1f/s achieved %.1f/s ratio %.3f\n",
		r.Offered, r.Achieved, r.Ratio)
	return b.String()
}

// fmtNs renders a nanosecond latency with three significant figures.
func fmtNs(ns int64) string {
	f := float64(ns)
	switch {
	case f >= 1e9:
		return fmt.Sprintf("%.3gs", f/1e9)
	case f >= 1e6:
		return fmt.Sprintf("%.3gms", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%.3gµs", f/1e3)
	default:
		return fmt.Sprintf("%.0fns", f)
	}
}
