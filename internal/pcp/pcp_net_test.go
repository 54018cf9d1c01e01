package pcp_test

// Daemon-over-the-network tests, in an external test package so they can
// share the internal/testutil testbed (testutil imports pcp; an internal
// test file would be an import cycle). Wire-codec and protocol-internal
// tests stay in pcp_test.go.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"papimc/internal/leakcheck"
	"papimc/internal/nest"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
	"papimc/internal/testutil"
)

func TestDaemonNamesOverNetwork(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, testutil.SampleInterval)
	c := testutil.Dial(t, bed.Addr)
	entries, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 {
		t.Fatalf("got %d metrics, want 16", len(entries))
	}
	found := false
	for i, e := range entries {
		if e.Name == "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value.cpu87" {
			found = true
		}
		// PMIDs are assigned in sorted-name order, from 1.
		if e.PMID != uint32(i+1) || i > 0 && entries[i-1].Name >= e.Name {
			t.Errorf("entry %d = %+v: want PMID %d in sorted-name order", i, e, i+1)
		}
	}
	if !found {
		t.Error("Table I Summit metric name missing from namespace")
	}
}

func TestFetchSeesTraffic(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, testutil.SampleInterval)
	c := testutil.Dial(t, bed.Addr)
	bed.Ctl.AddTraffic(true, 0, 64*800, 0, 0)
	bed.Clock.Advance(100 * simtime.Millisecond)
	var names []string
	for ch := 0; ch < 8; ch++ {
		names = append(names, pcp.NestMetricName(bed.NestPMU(), nest.Event{Channel: ch}))
	}
	res, err := c.FetchByName(names...)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, v := range res.Values {
		if v.Status != pcp.StatusOK {
			t.Fatalf("value status %d", v.Status)
		}
		sum += v.Value
	}
	if sum != 64*800 {
		t.Errorf("read sum over PCP = %d, want %d", sum, 64*800)
	}
}

func TestDaemonSamplingIntervalStaleness(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, testutil.SampleInterval)
	c := testutil.Dial(t, bed.Addr)
	name := pcp.NestMetricName(bed.NestPMU(), nest.Event{Channel: 0})
	// First fetch samples at t=0.
	res1, err := c.FetchByName(name)
	if err != nil {
		t.Fatal(err)
	}
	// New traffic, but within the same sampling interval: stale value.
	bed.Ctl.AddTraffic(true, 0, 64*8000, 0, 0)
	bed.Clock.Advance(simtime.Millisecond)
	res2, err := c.FetchByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Values[0].Value != res1.Values[0].Value {
		t.Errorf("value refreshed within sampling interval: %d -> %d",
			res1.Values[0].Value, res2.Values[0].Value)
	}
	if res2.Timestamp != res1.Timestamp {
		t.Errorf("timestamp advanced within interval")
	}
	// After the interval elapses the new traffic is visible.
	bed.Clock.Advance(20 * simtime.Millisecond)
	res3, err := c.FetchByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Values[0].Value <= res1.Values[0].Value {
		t.Errorf("value did not refresh after interval: %d", res3.Values[0].Value)
	}
}

func TestFetchUnknownPMID(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, testutil.SampleInterval)
	c := testutil.Dial(t, bed.Addr)
	res, err := c.Fetch([]uint32{9999, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Values {
		if v.Status != pcp.StatusNoSuchPMID {
			t.Errorf("pmid %d status = %d, want StatusNoSuchPMID", v.PMID, v.Status)
		}
	}
}

func TestLookupUnknownName(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, testutil.SampleInterval)
	c := testutil.Dial(t, bed.Addr)
	if _, err := c.Lookup("no.such.metric"); err == nil {
		t.Error("expected error for unknown metric")
	}
}

// TestConcurrentClients spins a daemon and hammers it from several
// goroutines to exercise concurrent connection handling.
func TestConcurrentClients(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, simtime.Millisecond)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			c, err := pcp.Dial(bed.Addr)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				if _, err := c.Fetch([]uint32{1, 2, 3}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Errorf("client goroutine: %v", err)
		}
	}
}

// TestLookupRefreshesOnMiss: a metric registered after the client cached
// the name table still resolves — the client refreshes once on a miss
// instead of returning a permanent "unknown metric" error.
func TestLookupRefreshesOnMiss(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, testutil.SampleInterval)
	c := testutil.Dial(t, bed.Addr)
	if _, err := c.Names(); err != nil { // populate the cache
		t.Fatal(err)
	}
	const late = "perfevent.hwcounters.late_agent.value.cpu87"
	if err := bed.Daemon.Register(pcp.Metric{Name: late,
		Read: func(simtime.Time) (uint64, error) { return 1234, nil }}); err != nil {
		t.Fatal(err)
	}
	id, err := c.Lookup(late)
	if err != nil {
		t.Fatalf("Lookup after namespace growth: %v", err)
	}
	if id == 0 {
		t.Error("resolved PMID 0")
	}
	res, err := c.FetchByName(late)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0].Status != pcp.StatusOK || res.Values[0].Value != 1234 {
		t.Errorf("late metric fetch = %+v", res.Values[0])
	}
	// A genuinely unknown metric still errors (after one refresh).
	if _, err := c.Lookup("still.not.there"); err == nil {
		t.Error("expected error for unknown metric")
	}
}

func TestDaemonRegisterValidation(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, testutil.SampleInterval)
	if err := bed.Daemon.Register(pcp.Metric{Name: "no.reader"}); err == nil {
		t.Error("expected error for nil reader")
	}
	existing := bed.Daemon.Names()[0].Name
	if err := bed.Daemon.Register(pcp.Metric{Name: existing,
		Read: func(simtime.Time) (uint64, error) { return 0, nil }}); err == nil {
		t.Error("expected error for duplicate metric")
	}
}

// TestDaemonFanOutRace hammers one daemon from many goroutines mixing
// FetchByName and Names while the clock advances concurrently, asserting
// no lost responses and per-connection monotonic timestamps. Run with
// -race, this is the serving tier's concurrency gate.
func TestDaemonFanOutRace(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	bed := testutil.StartNestDaemon(t, simtime.Millisecond)
	name := pcp.NestMetricName(bed.NestPMU(), nest.Event{Channel: 0})

	const goroutines = 16
	const iters = 40
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() { // concurrent time + traffic source
		defer tickWG.Done()
		for {
			select {
			case <-stopTick:
				return
			default:
				bed.Ctl.AddTraffic(true, 0, 64, bed.Clock.Now(), bed.Clock.Now())
				bed.Clock.Advance(100 * simtime.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := pcp.Dial(bed.Addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var lastTS int64 = -1
			for i := 0; i < iters; i++ {
				if i%8 == 0 {
					entries, err := c.Names()
					if err != nil {
						errs <- fmt.Errorf("names: %w", err)
						return
					}
					if len(entries) == 0 {
						errs <- fmt.Errorf("lost names response")
						return
					}
				}
				res, err := c.FetchByName(name)
				if err != nil {
					errs <- fmt.Errorf("fetch %d: %w", i, err)
					return
				}
				if len(res.Values) != 1 {
					errs <- fmt.Errorf("fetch %d: %d values", i, len(res.Values))
					return
				}
				if res.Timestamp < lastTS {
					errs <- fmt.Errorf("timestamp went backwards: %d -> %d", lastTS, res.Timestamp)
					return
				}
				lastTS = res.Timestamp
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(stopTick)
	tickWG.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestDialRefusesVersion2Answer: a server from before Version2 was
// retired answers a negotiating client with version 2 and switches to
// 9-byte tagged frames. The client speaks no such framing, so the dial
// must fail with ErrProtocol and close the connection rather than carry
// on in a framing the server has already left. The hand-rolled server
// answers the version request with 2 and then waits for the client to
// hang up.
func TestDialRefusesVersion2Answer(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hungUp := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			hungUp <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		magic := make([]byte, len(pcp.Magic))
		if _, err := io.ReadFull(br, magic); err != nil {
			hungUp <- err
			return
		}
		if _, err := conn.Write(magic); err != nil {
			hungUp <- err
			return
		}
		typ, _, err := pcp.ReadPDUInto(br, nil)
		if err != nil || typ != pcp.PDUVersionReq {
			hungUp <- fmt.Errorf("version request: type %d, %v", typ, err)
			return
		}
		if err := pcp.WritePDU(conn, pcp.PDUVersionResp, pcp.AppendVersion(nil, 2)); err != nil {
			hungUp <- err
			return
		}
		_, err = br.ReadByte()
		hungUp <- err
	}()

	c, err := pcp.DialMax(ln.Addr().String(), pcp.MaxVersion)
	if err == nil {
		c.Close()
		t.Fatal("dial accepted a server that answered version 2")
	}
	if !errors.Is(err, pcp.ErrProtocol) {
		t.Fatalf("dial err = %v, want ErrProtocol", err)
	}
	if err := <-hungUp; !errors.Is(err, io.EOF) {
		t.Fatalf("server saw %v after the refused answer, want EOF (the client hangs up)", err)
	}
}
