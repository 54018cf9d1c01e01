package pcp

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"papimc/internal/faultconn"
)

// Pipelined-path fault coverage with many requests in flight. The chaos
// suite proper (internal/chaos) also runs on Version3, but drives one
// request at a time so its conservation laws can count one fatal fault
// per failed round trip. These tests put deterministic faultconn faults
// against a Version3 connection carrying many outstanding requests and
// assert the per-request contract — every outstanding request surfaces
// a typed error, nothing hangs, and a per-request deadline fails only
// its own request.

// negotiatedReadBytes is the client-side read offset after connection
// setup on the happy path: the 4-byte handshake echo plus the lockstep
// PDUVersionResp frame (5-byte header + 4-byte version payload). Faults
// pinned past this offset land inside pipelined response traffic, not
// inside connection setup.
const negotiatedReadBytes = 4 + 5 + 4

// dialFaulted dials the daemon through a fault injector.
func dialFaulted(t *testing.T, addr string, sched faultconn.Schedule) (*Client, *faultconn.Injector) {
	t.Helper()
	inj := faultconn.New(1, sched)
	raw, err := inj.Dial(func() (net.Conn, error) { return net.Dial("tcp", addr) })()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientConn(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c, inj
}

// TestPipelinedMidStreamReset: a connection reset pinned mid-response
// while many requests are in flight must complete every one of them
// with a typed error — no request may hang, and later requests must get
// the sticky failure immediately.
func TestPipelinedMidStreamReset(t *testing.T) {
	_, _, addr := startPipelineDaemon(t, 8)
	c, inj := dialFaulted(t, addr, faultconn.Schedule{
		Exact: []faultconn.Fault{{
			Conn: 0, Dir: faultconn.Read, Off: negotiatedReadBytes + 5,
			Kind: faultconn.Reset, // mid tagged header of an early response
		}},
	})
	defer c.Close()
	if c.Version() < Version3 {
		t.Fatalf("negotiated version %d, want pipelined", c.Version())
	}

	const inflight = 16
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Fetch([]uint32{1, 2, 3})
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pipelined requests hung after a mid-stream reset")
	}

	failed := 0
	for i, err := range errs {
		if err == nil {
			continue // requests answered before the reset may succeed
		}
		failed++
		if !errors.Is(err, faultconn.ErrReset) && !errors.Is(err, ErrClientClosed) && !isNetError(err) {
			t.Errorf("request %d: err %v is not a typed transport error", i, err)
		}
	}
	if failed == 0 {
		t.Fatal("no request observed the reset — fault did not fire where expected")
	}
	if st := inj.Stats(); st.Resets != 1 {
		t.Fatalf("injector stats = %s, want exactly one reset", st)
	}
	// The failure is sticky: a fresh request fails immediately, typed.
	start := time.Now()
	if _, err := c.Fetch([]uint32{1}); err == nil {
		t.Fatal("fetch on a dead pipelined connection succeeded")
	} else if time.Since(start) > time.Second {
		t.Fatal("sticky failure was not immediate")
	}
}

// TestPipelinedStallPerRequestDeadline is the pipelined counterpart of
// the chaos suite's TestClientDeadlineUnderStall: the response stream
// stalls mid-flight, and every in-flight request times out with
// ErrRequestTimeout at its own per-request deadline — the whole batch
// of goroutines unblocks at ~the deadline, not at the stall length.
func TestPipelinedStallPerRequestDeadline(t *testing.T) {
	_, _, addr := startPipelineDaemon(t, 8)
	c, inj := dialFaulted(t, addr, faultconn.Schedule{
		Exact: []faultconn.Fault{{
			Conn: 0, Dir: faultconn.Read, Off: negotiatedReadBytes + 3,
			Kind: faultconn.Stall,
		}},
		// Per-request deadlines must win by a wide margin. (Close waits
		// out the stall — the injected sleep holds the reader — so the
		// stall also bounds the test's teardown time.)
		MaxStall: 3 * time.Second,
	})
	defer c.Close()
	const deadline = 150 * time.Millisecond
	c.SetTimeout(deadline)

	const inflight = 8
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Fetch([]uint32{1, 2})
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	timedOut := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		timedOut++
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("request %d: err %v, want a deadline error", i, err)
		}
	}
	if timedOut == 0 {
		t.Fatal("no request timed out through the stalled stream")
	}
	if elapsed > 20*deadline {
		t.Fatalf("requests unblocked after %v, want ~%v — deadline is not per-request", elapsed, deadline)
	}
	if st := inj.Stats(); st.Stalls != 1 {
		t.Fatalf("injector stats = %s, want exactly one stall", st)
	}
}

func isNetError(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr)
}
