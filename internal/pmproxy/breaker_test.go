package pmproxy

import (
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"papimc/internal/faultconn"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// TestBreakerDelayDoubling unit-tests the breaker clock math with no
// jitter: the open interval doubles after each failed probe, caps at
// ProbeDelayMax, and resets on a successful probe.
func TestBreakerDelayDoubling(t *testing.T) {
	const sec = int64(time.Second)
	b := newBreaker(BreakerConfig{Threshold: 1, ProbeDelay: time.Second, ProbeDelayMax: 3 * time.Second}, nil)

	b.onFailure(0) // threshold 1: first failure trips
	if err := b.allow(sec / 2); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("allow before probe delay: %v, want ErrCircuitOpen", err)
	}
	// Failures landing while already open (stragglers that were in
	// flight when it tripped) change nothing.
	b.onFailure(sec / 4)

	if err := b.allow(sec); err != nil { // 1s elapsed: probe admitted
		t.Fatalf("probe at delay boundary: %v", err)
	}
	b.onFailure(sec) // failed probe: delay doubles to 2s
	if err := b.allow(3*sec - 1); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("allow inside doubled delay: %v, want ErrCircuitOpen", err)
	}
	if err := b.allow(3 * sec); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	b.onFailure(3 * sec) // delay caps at 3s, not 4s
	if err := b.allow(6*sec - 1); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("capped delay not honoured")
	}
	if err := b.allow(6 * sec); err != nil {
		t.Fatalf("third probe: %v", err)
	}
	b.onSuccess() // probe succeeded: closed, delay reset
	if err := b.allow(6 * sec); err != nil {
		t.Fatalf("allow while closed: %v", err)
	}
	b.onFailure(7 * sec) // trips again; delay is back to 1s
	if err := b.allow(8 * sec); err != nil {
		t.Fatalf("probe after reset delay: %v", err)
	}

	want := []string{
		"closed→open",
		"open→half-open", "half-open→open",
		"open→half-open", "half-open→open",
		"open→half-open", "half-open→closed",
		"closed→open", "open→half-open",
	}
	if got := b.history(); !reflect.DeepEqual(got, want) {
		t.Errorf("transitions = %v, want %v", got, want)
	}
	opens, probes := b.snapshot()
	if opens != 4 || probes != 4 {
		t.Errorf("opens = %d probes = %d, want 4 and 4", opens, probes)
	}
}

// TestBreakerHalfOpenSingleProbe pins that half-open admits exactly one
// in-flight probe: a second request during the probe is short-circuited.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(BreakerConfig{Threshold: 1, ProbeDelay: time.Second}, nil)
	b.onFailure(0)
	if err := b.allow(int64(time.Second)); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if err := b.allow(int64(time.Second)); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second request during probe: %v, want ErrCircuitOpen", err)
	}
}

// TestBreakerStateMachine drives a real proxy through the full breaker
// cycle using faultconn refusal faults: the first three upstream dials
// are refused, tripping closed→open, failing the first half-open probe
// back to open, and closing on the second probe. While the breaker is
// open no request performs a dial — the short-circuit happens before
// any connection attempt.
func TestBreakerStateMachine(t *testing.T) {
	bed := startNestDaemon(t, sampleInterval)

	// Conns 0-2 are refused at dial time; conn 3 reaches the daemon.
	inj := faultconn.New(1, faultconn.Schedule{Exact: []faultconn.Fault{
		{Conn: 0, Kind: faultconn.Refuse},
		{Conn: 1, Kind: faultconn.Refuse},
		{Conn: 2, Kind: faultconn.Refuse},
	}})
	rawDial := inj.Dial(func() (net.Conn, error) { return net.Dial("tcp", bed.Addr) })
	var dials atomic.Int64
	p := New(Config{
		Dial: func() (*pcp.Client, error) {
			dials.Add(1)
			conn, err := rawDial()
			if err != nil {
				return nil, err
			}
			return pcp.NewClientConn(conn)
		},
		Clock:   bed.Clock,
		Breaker: BreakerConfig{Threshold: 2, ProbeDelay: 100 * time.Millisecond},
	})
	defer p.Close()
	pmids := []uint32{1}

	mustFail := func(label string) error {
		t.Helper()
		_, err := p.Fetch(pmids)
		if err == nil {
			t.Fatalf("%s: fetch unexpectedly succeeded", label)
		}
		return err
	}

	// Two refused dials reach the threshold and trip the breaker.
	mustFail("failure 1")
	mustFail("failure 2")
	if got := p.brk.history(); !reflect.DeepEqual(got, []string{"closed→open"}) {
		t.Fatalf("after threshold: history = %v", got)
	}
	if dials.Load() != 2 {
		t.Fatalf("dials = %d, want 2", dials.Load())
	}

	// Open: requests fail fast with ErrCircuitOpen and never dial.
	err := mustFail("short circuit")
	if !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, ErrUpstreamDown) {
		t.Fatalf("open-circuit err = %v, want ErrCircuitOpen wrapping ErrUpstreamDown", err)
	}
	if dials.Load() != 2 {
		t.Fatalf("open breaker dialled: dials = %d, want 2", dials.Load())
	}

	// Past the (jittered, ≤ProbeDelay) open interval the breaker admits
	// one probe; conn 2 is still refused, so it re-opens with a doubled
	// delay.
	bed.Clock.Advance(simtime.Duration(101 * simtime.Millisecond))
	mustFail("failed probe")
	if dials.Load() != 3 {
		t.Fatalf("probe dials = %d, want 3", dials.Load())
	}
	err = mustFail("short circuit after failed probe")
	if !errors.Is(err, ErrCircuitOpen) || dials.Load() != 3 {
		t.Fatalf("re-opened breaker: err = %v dials = %d", err, dials.Load())
	}

	// After the doubled delay the next probe dials conn 3, reaches the
	// daemon, and closes the breaker; normal service resumes.
	bed.Clock.Advance(simtime.Duration(201 * simtime.Millisecond))
	if _, err := p.Fetch(pmids); err != nil {
		t.Fatalf("closing probe failed: %v", err)
	}
	if _, err := p.Fetch(pmids); err != nil {
		t.Fatalf("fetch after close failed: %v", err)
	}

	want := []string{
		"closed→open",
		"open→half-open", "half-open→open",
		"open→half-open", "half-open→closed",
	}
	if got := p.brk.history(); !reflect.DeepEqual(got, want) {
		t.Errorf("transition sequence = %v, want %v", got, want)
	}
	st := p.Stats()
	if st.BreakerOpens != 2 || st.BreakerProbes != 2 || st.BreakerShortCircuits != 2 {
		t.Errorf("breaker counters = opens %d probes %d shorts %d, want 2/2/2",
			st.BreakerOpens, st.BreakerProbes, st.BreakerShortCircuits)
	}
	// Short circuits never reached the upstream, so they must not count
	// as upstream errors: only the 3 refused dials do.
	if st.UpstreamErrors != 3 {
		t.Errorf("UpstreamErrors = %d, want 3 (refused dials only)", st.UpstreamErrors)
	}
	if st.UpstreamErrors != st.Retries+st.Exhausted {
		t.Errorf("attempt accounting broken: errors %d != retries %d + exhausted %d",
			st.UpstreamErrors, st.Retries, st.Exhausted)
	}
}
