package workload

import (
	"testing"
	"time"

	"papimc/internal/simtime"
)

// richSpec exercises every generation feature: two cohorts, skewed
// class mixes, heavy-tailed sizes, diurnal harmonics, and rate windows.
func richSpec() *Spec {
	return &Spec{
		Name:     "rich",
		Seed:     7,
		Duration: 20 * simtime.Second,
		Server:   ServerSpec{Servers: 16, Base: 200 * simtime.Microsecond, Jitter: 0.2, SizeRef: 4},
		Cohorts: []CohortSpec{
			{
				Name: "dashboards", Clients: 2000, Rate: 400,
				Mix:     Mix{Live: 6, Proxied: 2, Archive: 1, Derived: 1},
				Size:    SizeSpec{Min: 2, Alpha: 1.2, Max: 128},
				Diurnal: []Harmonic{{Period: 10 * simtime.Second, Amplitude: 0.5}},
				Windows: []Window{{Start: 0, Mult: 1}, {Start: 10 * simtime.Second, Mult: 1.5}},
			},
			{
				Name: "alerting", Clients: 500, Rate: 200,
				Mix:  Mix{Live: 1},
				Size: SizeSpec{Min: 1, Alpha: 0.8, Max: 8},
			},
		},
	}
}

// kneeSpec has an exactly computable capacity: one server, 1ms service
// time at the fixed size, so 1000 req/s. Rate 600 leaves headroom at
// mult 1 and saturates at mult 2.
func kneeSpec() *Spec {
	return &Spec{
		Name:     "knee",
		Seed:     42,
		Duration: 30 * simtime.Second,
		Server:   ServerSpec{Servers: 1, Base: simtime.Millisecond, SizeRef: 1},
		Cohorts: []CohortSpec{{
			Name: "api", Clients: 400, Rate: 600,
			Size: SizeSpec{Min: 1, Max: 1},
		}},
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(richSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(richSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Errorf("same spec and seed rendered differently:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	if a.Total.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	// A different seed must move the stream.
	other := richSpec()
	other.Seed = 8
	c, err := Run(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Render() == a.Render() {
		t.Error("different seeds produced identical reports")
	}
}

func TestRunMixSizesAndAccounting(t *testing.T) {
	rep, err := Run(richSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dash := rep.Cohorts[0]
	// dashboards weights 6:2:1:1 — live must dominate, every class present.
	if dash.ByClass[Live] <= dash.ByClass[Proxied] || dash.ByClass[Proxied] <= dash.ByClass[Archive] {
		t.Errorf("mix ordering violated: %v", dash.ByClass)
	}
	for c := Live; c < NumClasses; c++ {
		if dash.ByClass[c] == 0 {
			t.Errorf("class %v never drawn in %d arrivals", c, dash.Arrivals)
		}
	}
	// alerting is pure live.
	alert := rep.Cohorts[1]
	if got := alert.ByClass[Proxied] + alert.ByClass[Archive] + alert.ByClass[Derived]; got != 0 {
		t.Errorf("pure-live cohort drew %d non-live requests", got)
	}
	// Accounting closes: arrivals = completed + pending, per cohort and total.
	for _, c := range append(rep.Cohorts, rep.Total) {
		if c.Arrivals != c.Completed+c.Pending {
			t.Errorf("%s: arrivals %d != completed %d + pending %d", c.Name, c.Arrivals, c.Completed, c.Pending)
		}
	}
	// Percentiles are monotone and bounded by the max.
	tot := rep.Total
	if !(tot.P50 <= tot.P90 && tot.P90 <= tot.P99 && tot.P99 <= tot.P999 && tot.P999 <= tot.MaxLat) {
		t.Errorf("percentiles not monotone: p50=%d p90=%d p99=%d p99.9=%d max=%d",
			tot.P50, tot.P90, tot.P99, tot.P999, tot.MaxLat)
	}
	// Offered rate lands near the configured aggregate (600/s average:
	// the diurnal term averages out, the mult-1.5 window raises the mean).
	if rep.Offered < 400 || rep.Offered > 1100 {
		t.Errorf("offered rate %.1f/s far from configured aggregate", rep.Offered)
	}
}

func TestRunMultScalesOfferedLoad(t *testing.T) {
	base, err := Run(kneeSpec(), Options{Mult: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	double, err := Run(kneeSpec(), Options{Mult: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := double.Offered / base.Offered
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("doubling mult scaled offered load by %.2f, want ~2", ratio)
	}
}

// TestMillionClientsVirtualTime is the headline acceptance check: one
// million concurrent clients simulated over ten virtual minutes, faster
// than real time, with a byte-identical report across runs.
func TestMillionClientsVirtualTime(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory makes the 1M-client heap too heavy")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := func() *Spec {
		return &Spec{
			Name:     "million",
			Seed:     99,
			Duration: 600 * simtime.Second,
			Server:   ServerSpec{Servers: 32, Base: 500 * simtime.Microsecond, Jitter: 0.1, SizeRef: 8},
			Cohorts: []CohortSpec{{
				Name: "world", Clients: 1_000_000, Rate: 3000,
				Mix:     Mix{Live: 4, Proxied: 3, Archive: 2, Derived: 1},
				Size:    SizeSpec{Min: 1, Alpha: 1.1, Max: 64},
				Diurnal: []Harmonic{{Period: 300 * simtime.Second, Amplitude: 0.6}},
			}},
		}
	}
	start := time.Now()
	a, err := Run(spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	virtual := time.Duration(int64(a.Horizon))
	if wall >= virtual {
		t.Errorf("virtual-time run of %v took %v wall — not faster than real time", virtual, wall)
	}
	t.Logf("1M clients, %v virtual in %v wall (%.0fx real time, %d events, %d arrivals)",
		virtual, wall, virtual.Seconds()/wall.Seconds(), a.Events, a.Total.Arrivals)
	if a.Total.Arrivals < 1_000_000 {
		t.Errorf("only %d arrivals over the horizon, want over a million", a.Total.Arrivals)
	}
	b, err := Run(spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Error("million-client simulation not deterministic across runs")
	}
}
