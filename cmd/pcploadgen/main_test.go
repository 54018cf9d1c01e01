package main

import (
	"testing"
	"time"

	"papimc/internal/loadgen"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
	"papimc/internal/workload"
)

// TestLiveSpecOverloadQueues: a spec's arrival stream offered at 1000
// req/s to one worker behind a 2 ms fetcher — twice its capacity — must
// report the queue: latency from the scheduled arrival grows to about
// the run's overshoot, completions fall behind arrivals, and what is
// still queued when the horizon passes is pending. (Measured from the
// moment a worker picks a request up, the same run reads p99 ≈ 2 ms and
// ratio 1.000.) The fixed-rate schedule at the same rate goes through
// the same dispatcher, so its median must agree within a factor of two;
// the streams differ only in spacing, Poisson against even.
func TestLiveSpecOverloadQueues(t *testing.T) {
	const (
		service = 2 * time.Millisecond
		rate    = 1000
		horizon = 250 * time.Millisecond
	)
	slow := loadgen.SharedFactory(loadgen.FetchFunc(func([]uint32) (pcp.FetchResult, error) {
		time.Sleep(service)
		return pcp.FetchResult{}, nil
	}))
	next, err := workload.Arrivals(&workload.Spec{
		Name: "overload", Seed: 11, Duration: simtime.Duration(horizon),
		Cohorts: []workload.CohortSpec{{Name: "c", Clients: 100, Rate: rate, Size: workload.SizeSpec{Min: 1, Max: 1}}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadgen.Run(slow, loadgen.Options{Schedule: specSchedule(next), Duration: horizon})
	if err != nil {
		t.Fatal(err)
	}
	if want := rate * horizon.Seconds(); float64(spec.Arrivals) < want/2 || spec.Ops != spec.Arrivals {
		t.Fatalf("spec run offered %d arrivals and served %d, want about %g, all served", spec.Arrivals, spec.Ops, want)
	}
	overshoot := spec.Elapsed - spec.Window
	if spec.P99 < overshoot/2 || spec.P99 < 25*service {
		t.Errorf("2x overload hidden: p99 %v, overshoot %v, service %v", spec.P99, overshoot, service)
	}
	if spec.Pending == 0 || spec.Pending >= spec.Arrivals {
		t.Errorf("%d of %d arrivals pending, want some: ratio must fall below 1", spec.Pending, spec.Arrivals)
	}

	sched, err := loadgen.FixedRate(rate)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := loadgen.Run(slow, loadgen.Options{Schedule: sched, Duration: horizon})
	if err != nil {
		t.Fatal(err)
	}
	if f := float64(fixed.P50) / float64(spec.P50); f < 0.5 || f > 2 {
		t.Errorf("same rate, same dispatcher: fixed-rate p50 %v, spec p50 %v (factor %.2f, want within 2)", fixed.P50, spec.P50, f)
	}
}
