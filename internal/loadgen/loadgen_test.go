package loadgen

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/testutil"
)

// testDaemon builds a daemon with synthetic metrics via the shared
// testutil bed and returns it plus its TCP address.
func testDaemon(t *testing.T) (*pcp.Daemon, string) {
	t.Helper()
	return testutil.StartSyntheticDaemon(t, 8)
}

// TestLiveClosedLoop drives real wall-clock load against the daemon over
// TCP — the smoke path CI exercises via cmd/pcploadgen.
func TestLiveClosedLoop(t *testing.T) {
	_, addr := testDaemon(t)
	r, err := Run(DialFactory(addr), Options{
		Workers: 4,
		Ops:     50,
		PMIDs:   []uint32{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 200 || r.Errors != 0 {
		t.Errorf("ops=%d errs=%d, want 200/0", r.Ops, r.Errors)
	}
	if r.Throughput <= 0 || r.P50 <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
}

// TestSharedFactoryInProcess runs the generator against the daemon's
// in-process Fetch, no sockets involved.
func TestSharedFactoryInProcess(t *testing.T) {
	d, _ := testDaemon(t)
	f := SharedFactory(FetchFunc(func(pmids []uint32) (pcp.FetchResult, error) {
		return d.Fetch(pmids), nil
	}))
	r, err := Run(f, Options{Workers: 2, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 200 {
		t.Errorf("ops = %d, want 200", r.Ops)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := FixedRate(0); err == nil {
		t.Error("open loop without a rate should fail")
	}
	down := errors.New("factory down")
	bad := func() (Fetcher, func() error, error) { return nil, nil, down }
	for _, o := range []Options{{Ops: 1}, {Ops: 1, Schedule: func(int) (time.Duration, int, bool) { return 0, 0, true }}} {
		if _, err := Run(bad, o); !errors.Is(err, down) {
			t.Errorf("factory failure: err = %v, want it surfaced before any load", err)
		}
	}
}

// TestRateValidationTyped: a zero, negative or NaN rate is rejected with
// the typed ErrRate where the rate enters, FixedRate; a closed loop has
// no rate to get wrong.
func TestRateValidationTyped(t *testing.T) {
	for _, rate := range []float64{0, -5, math.NaN()} {
		if _, err := FixedRate(rate); !errors.Is(err, ErrRate) {
			t.Errorf("FixedRate(%g): err = %v, want ErrRate", rate, err)
		}
	}
	f := SharedFactory(FetchFunc(func([]uint32) (pcp.FetchResult, error) {
		return pcp.FetchResult{}, nil
	}))
	r, err := Run(f, Options{Ops: 5})
	if err != nil || r.Ops != 5 || r.Mode != Closed {
		t.Errorf("closed loop without a schedule: %+v, %v, want 5 closed ops", r, err)
	}
}

// slowFetcher serves every fetch in service, one at a time per caller.
func slowFetcher(service time.Duration) Factory {
	return SharedFactory(FetchFunc(func([]uint32) (pcp.FetchResult, error) {
		time.Sleep(service)
		return pcp.FetchResult{}, nil
	}))
}

// TestOpenLoopQueueing: one worker behind a 2 ms fetcher serves at most
// 500 req/s. Offered 1000 req/s it must report the queue it builds —
// latency measured from the scheduled arrival grows to about the run's
// overshoot, and the requests still in the queue when the window closed
// are pending — while at 100 req/s it must report none of that.
func TestOpenLoopQueueing(t *testing.T) {
	const service = 2 * time.Millisecond
	run := func(rate float64, ops int) Result {
		t.Helper()
		sched, err := FixedRate(rate)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(slowFetcher(service), Options{Schedule: sched, Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		if r.Mode != Open || r.Arrivals != int64(ops) || r.Ops != int64(ops) || r.Errors != 0 {
			t.Fatalf("rate %g: %+v, want %d open arrivals all served", rate, r, ops)
		}
		if want := time.Duration(float64(ops) / rate * 1e9); r.Window != want {
			t.Errorf("rate %g: window %v, want %v", rate, r.Window, want)
		}
		return r
	}
	relaxed := run(100, 20)
	if relaxed.P50 > 10*service || relaxed.Pending > 1 {
		t.Errorf("20%% load shows queueing: p50 %v, %d pending", relaxed.P50, relaxed.Pending)
	}
	over := run(1000, 200)
	overshoot := over.Elapsed - over.Window
	if over.P99 < overshoot/2 || over.P99 < 25*service {
		t.Errorf("2x overload hidden: p99 %v, overshoot %v, service %v", over.P99, overshoot, service)
	}
	if over.Pending < over.Arrivals/4 {
		t.Errorf("2x overload: %d of %d arrivals pending, want about half", over.Pending, over.Arrivals)
	}
	if rep := Report([]Result{over}); !strings.Contains(rep, "offered 1000.0/s") || !strings.Contains(rep, "ratio 0.") {
		t.Errorf("report hides the window accounting:\n%s", rep)
	}
}

func TestReportShape(t *testing.T) {
	_, addr := testDaemon(t)
	rs, err := Sweep(DialFactory(addr), []int{1, 2}, Options{Ops: 50})
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(rs)
	for _, want := range []string{"workers", "p99.9", "closed"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
