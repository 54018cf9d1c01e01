package pcp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papimc/internal/simtime"
)

// startPipelineDaemon serves a daemon of n self-checking timestamp
// metrics over TCP with the clock advanced past one sample interval.
func startPipelineDaemon(t *testing.T, n int) (*Daemon, *simtime.Clock, string) {
	t.Helper()
	clock := simtime.NewClock()
	var ms []Metric
	for i := 0; i < n; i++ {
		ms = append(ms, tsMetric(fmt.Sprintf("pipe.metric.%02d", i)))
	}
	d, err := NewDaemon(clock, simtime.Millisecond, ms)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := d.StartOn(ln)
	t.Cleanup(func() { d.Close() })
	clock.Advance(2 * simtime.Millisecond)
	return d, clock, addr
}

// startV1OnlyServer hand-rolls a pre-Version2 daemon: correct magic
// handshake and lockstep serving, but PDUVersionReq — like any unknown
// type — gets a PDUError. A negotiating client must fall back to
// Version1 against it.
func startV1OnlyServer(t *testing.T, names []NameEntry, res FetchResult) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				if err := serverHandshake(br, bw); err != nil {
					return
				}
				for {
					typ, payload, err := ReadPDU(br)
					if err != nil {
						return
					}
					var respType uint8
					var resp []byte
					switch typ {
					case PDUNamesReq:
						respType, resp = PDUNamesResp, EncodeNamesResp(names)
					case PDUFetchReq:
						pmids, err := DecodeFetchReq(payload)
						if err != nil {
							respType, resp = PDUError, EncodeError(err.Error())
							break
						}
						out := res
						out.Values = make([]FetchValue, len(pmids))
						for i, id := range pmids {
							out.Values[i] = FetchValue{PMID: id, Status: StatusOK, Value: uint64(res.Timestamp)}
						}
						respType, resp = PDUFetchResp, EncodeFetchResp(out)
					default:
						respType, resp = PDUError, EncodeError(fmt.Sprintf("unknown PDU type %d", typ))
					}
					if err := WritePDU(bw, respType, resp); err != nil {
						return
					}
					if err := bw.Flush(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestVersionNegotiationMatrix covers every pairing of negotiating and
// older peers: new<->new lands on Version3 wide frames, a Version2-capped
// client gets tagged frames, while a capped (old) client against a new
// daemon and a new client against a v1-only daemon both fall back to
// Version1 lockstep — with results identical to the upgraded pairing's.
func TestVersionNegotiationMatrix(t *testing.T) {
	_, _, addr := startPipelineDaemon(t, 4)
	pmids := []uint32{1, 2, 3, 4}

	// New client, new daemon: Version3 pipelined wide frames.
	cNew, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cNew.Close()
	if v := cNew.Version(); v != Version3 {
		t.Fatalf("new<->new negotiated version %d, want %d", v, Version3)
	}
	namesNew, err := cNew.Names()
	if err != nil {
		t.Fatal(err)
	}
	resNew, err := cNew.Fetch(pmids)
	if err != nil {
		t.Fatal(err)
	}

	// Version2-capped client, new daemon: tagged frames, same answers.
	cV2, err := DialMax(addr, Version2)
	if err != nil {
		t.Fatal(err)
	}
	defer cV2.Close()
	if v := cV2.Version(); v != Version2 {
		t.Fatalf("v2-capped client negotiated version %d, want %d", v, Version2)
	}
	namesV2, err := cV2.Names()
	if err != nil {
		t.Fatal(err)
	}
	resV2, err := cV2.Fetch(pmids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(namesNew, namesV2) {
		t.Fatalf("namespaces differ across versions:\nv3: %v\nv2: %v", namesNew, namesV2)
	}
	if !reflect.DeepEqual(resNew, resV2) {
		t.Fatalf("fetch results differ across versions:\nv3: %+v\nv2: %+v", resNew, resV2)
	}

	// Old client (capped at Version1), new daemon: lockstep fallback.
	cOld, err := DialMax(addr, Version1)
	if err != nil {
		t.Fatal(err)
	}
	defer cOld.Close()
	if v := cOld.Version(); v != Version1 {
		t.Fatalf("old client negotiated version %d, want %d", v, Version1)
	}
	namesOld, err := cOld.Names()
	if err != nil {
		t.Fatal(err)
	}
	resOld, err := cOld.Fetch(pmids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(namesNew, namesOld) {
		t.Fatalf("namespaces differ across versions:\nv2: %v\nv1: %v", namesNew, namesOld)
	}
	if !reflect.DeepEqual(resNew, resOld) {
		t.Fatalf("fetch results differ across versions:\nv2: %+v\nv1: %+v", resNew, resOld)
	}

	// The whole-namespace and batch fetches go through the same seam: the
	// lockstep client (whose batch is one round trip per set) and both
	// pipelined framings return what the Version3 client does.
	sets := [][]uint32{{1, 2}, {4}, {1, 2}}
	allNew, err := cNew.FetchAll()
	if err != nil {
		t.Fatal(err)
	}
	batchNew, err := cNew.FetchBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(allNew.Values) != 4 || len(batchNew) != len(sets) {
		t.Fatalf("FetchAll returned %d values, FetchBatch %d sets", len(allNew.Values), len(batchNew))
	}
	for _, c := range []*Client{cV2, cOld} {
		all, err := c.FetchAll()
		if err != nil {
			t.Fatal(err)
		}
		batch, err := c.FetchBatch(sets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(all, allNew) {
			t.Fatalf("FetchAll at version %d differs:\ngot:  %+v\nwant: %+v", c.Version(), all, allNew)
		}
		if !reflect.DeepEqual(batch, batchNew) {
			t.Fatalf("FetchBatch at version %d differs:\ngot:  %+v\nwant: %+v", c.Version(), batch, batchNew)
		}
	}

	// New client, v1-only daemon: the version probe gets a PDUError and
	// the client must settle on lockstep, not fail the connection.
	legacyNames := []NameEntry{{PMID: 1, Name: "legacy.a"}, {PMID: 2, Name: "legacy.b"}}
	legacyAddr := startV1OnlyServer(t, legacyNames, FetchResult{Timestamp: 77})
	cFall, err := Dial(legacyAddr)
	if err != nil {
		t.Fatalf("negotiating client failed against v1-only server: %v", err)
	}
	defer cFall.Close()
	if v := cFall.Version(); v != Version1 {
		t.Fatalf("fallback client at version %d, want %d", v, Version1)
	}
	cPinned, err := DialMax(legacyAddr, Version1)
	if err != nil {
		t.Fatal(err)
	}
	defer cPinned.Close()
	gotFall, err := cFall.Fetch([]uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	gotPinned, err := cPinned.Fetch([]uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotFall, gotPinned) {
		t.Fatalf("fallback and pinned clients disagree:\nfallback: %+v\npinned: %+v", gotFall, gotPinned)
	}
	nFall, err := cFall.Names()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nFall, legacyNames) {
		t.Fatalf("fallback names = %v, want %v", nFall, legacyNames)
	}
}

// deadlineCountingConn counts SetDeadline syscalls so the lockstep
// deadline regression has a hard number: one per armed round trip, zero
// when no timeout is set.
type deadlineCountingConn struct {
	net.Conn
	deadlines atomic.Int64
}

func (c *deadlineCountingConn) SetDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetDeadline(t)
}

// TestLockstepDeadlineSyscallCount pins the deadline-churn fix: a
// lockstep client with no timeout makes zero SetDeadline calls, and an
// armed client makes exactly one per round trip (the old code paid two
// — arm and clear — even when no timeout was ever set).
func TestLockstepDeadlineSyscallCount(t *testing.T) {
	_, _, addr := startPipelineDaemon(t, 2)
	dial := func() *deadlineCountingConn {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		return &deadlineCountingConn{Conn: raw}
	}

	const rounds = 10
	noTimeout := dial()
	c1, err := NewClientConnMax(noTimeout, Version1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	for i := 0; i < rounds; i++ {
		if _, err := c1.Fetch([]uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := noTimeout.deadlines.Load(); n != 0 {
		t.Fatalf("client without timeout made %d SetDeadline calls, want 0", n)
	}

	armed := dial()
	c2, err := NewClientConnMax(armed, Version1)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetTimeout(5 * time.Second)
	for i := 0; i < rounds; i++ {
		if _, err := c2.Fetch([]uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	// Edge-triggered arming: one SetDeadline per round trip, not two.
	if n := armed.deadlines.Load(); n != rounds {
		t.Fatalf("armed client made %d SetDeadline calls over %d round trips, want %d", n, rounds, rounds)
	}
	// Disarming clears the deadline once, then stays quiet.
	c2.SetTimeout(0)
	for i := 0; i < rounds; i++ {
		if _, err := c2.Fetch([]uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := armed.deadlines.Load(); n != rounds+1 {
		t.Fatalf("disarmed client at %d SetDeadline calls, want %d (one clearing call)", n, rounds+1)
	}

	// The pipelined client uses per-request timers, never the socket
	// deadline: zero SetDeadline calls even with a timeout armed.
	piped := dial()
	c3, err := NewClientConnMax(piped, MaxVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.SetTimeout(5 * time.Second)
	for i := 0; i < rounds; i++ {
		if _, err := c3.Fetch([]uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := piped.deadlines.Load(); n != 0 {
		t.Fatalf("pipelined client made %d SetDeadline calls, want 0", n)
	}
}

// TestPipelinedTimeoutKeepsConnectionUsable: a per-request deadline
// expiring must fail only that request — the connection, and requests
// issued after the timeout, keep working. (Lockstep documents the
// opposite: a timeout leaves the connection undefined.) The server here
// parks the first fetch, answers later ones immediately, and finally
// releases the parked response so the client's demux loop must discard
// an answer to an abandoned tag.
func TestPipelinedTimeoutKeepsConnectionUsable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		if err := serverHandshake(br, bw); err != nil {
			return
		}
		typ, payload, err := ReadPDU(br)
		if err != nil || typ != PDUVersionReq {
			return
		}
		respType, resp, version := negotiateVersion(payload, nil)
		if version < Version3 {
			return
		}
		if WritePDU(bw, respType, resp) != nil || bw.Flush() != nil {
			return
		}
		var parkedTag, parkedTenant uint32
		parked := false
		answer := func(tag, tenant uint32) bool {
			body := EncodeFetchResp(FetchResult{Timestamp: 9, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 9}}})
			return WriteWidePDU(bw, PDUFetchResp, tag, tenant, body) == nil && bw.Flush() == nil
		}
		for {
			typ, tag, tenant, _, err := ReadWidePDUInto(br, nil)
			if err != nil {
				return
			}
			if typ != PDUFetchReq {
				continue
			}
			if !parked {
				parked, parkedTag, parkedTenant = true, tag, tenant // time this one out
				continue
			}
			// Release the stale parked answer first: the client abandoned
			// that tag, so its reader must discard it, then match this one.
			if !answer(parkedTag, parkedTenant) || !answer(tag, tenant) {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(80 * time.Millisecond)

	start := time.Now()
	_, err = c.Fetch([]uint32{1})
	if err == nil {
		t.Fatal("parked fetch succeeded, want timeout")
	}
	if !errors.Is(err, ErrRequestTimeout) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrRequestTimeout wrapping os.ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline is not per-request", elapsed)
	}

	res, err := c.Fetch([]uint32{1})
	if err != nil {
		t.Fatalf("fetch after a timed-out request failed: %v — connection must stay usable", err)
	}
	if len(res.Values) != 1 || res.Values[0].Value != 9 {
		t.Fatalf("post-timeout fetch got %+v", res)
	}
}

// TestPipelineConcurrentStress is the wire path's -race gate: 64
// goroutines share ONE pipelined client, interleaving Fetch and
// FetchBatch, while the daemon concurrently registers metrics and the
// clock advances. The timestamp metric is the lockstep oracle in
// self-checking form — exactly what a lockstep client would verify, but
// checkable per response: every OK value equals its result's timestamp,
// a batch's sets share one timestamp (the single-snapshot guarantee),
// and per-goroutine timestamps never go backwards.
func TestPipelineConcurrentStress(t *testing.T) {
	d, clock, addr := startPipelineDaemon(t, 8)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Version() < Version2 {
		t.Fatalf("negotiated version %d, want pipelined", c.Version())
	}

	const goroutines = 64
	const iters = 60
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			clock.Advance(250 * simtime.Microsecond)
			if i%10 == 0 {
				_ = d.Register(tsMetric(fmt.Sprintf("pipe.late.%04d", i)))
			}
		}
	}()
	go func() { // idle half the aux budget so Register bursts interleave
		defer aux.Done()
		<-stop
	}()

	check := func(res FetchResult, pmids []uint32) error {
		if len(res.Values) != len(pmids) {
			return fmt.Errorf("%d values for %d pmids", len(res.Values), len(pmids))
		}
		for i, v := range res.Values {
			if v.PMID != pmids[i] {
				return fmt.Errorf("value %d has pmid %d, want %d", i, v.PMID, pmids[i])
			}
			if v.Status == StatusOK && v.Value != uint64(res.Timestamp) {
				return fmt.Errorf("torn snapshot: value %d = %d at timestamp %d", i, v.Value, res.Timestamp)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pmids := []uint32{1, uint32(g%8 + 1), 3}
			sets := [][]uint32{{1, 2}, pmids, {8}}
			var lastTS int64
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					res, err := c.Fetch(pmids)
					if err != nil {
						errCh <- fmt.Errorf("goroutine %d fetch %d: %w", g, i, err)
						return
					}
					if err := check(res, pmids); err != nil {
						errCh <- fmt.Errorf("goroutine %d fetch %d: %w", g, i, err)
						return
					}
					if res.Timestamp < lastTS {
						errCh <- fmt.Errorf("goroutine %d: timestamp went backwards %d -> %d", g, lastTS, res.Timestamp)
						return
					}
					lastTS = res.Timestamp
				} else {
					out, err := c.FetchBatch(sets)
					if err != nil {
						errCh <- fmt.Errorf("goroutine %d batch %d: %w", g, i, err)
						return
					}
					if len(out) != len(sets) {
						errCh <- fmt.Errorf("goroutine %d batch %d: %d results for %d sets", g, i, len(out), len(sets))
						return
					}
					for si, res := range out {
						if res.Timestamp != out[0].Timestamp {
							errCh <- fmt.Errorf("goroutine %d batch %d: set %d at ts %d, set 0 at %d — batch not one snapshot",
								g, i, si, res.Timestamp, out[0].Timestamp)
							return
						}
						if err := check(res, sets[si]); err != nil {
							errCh <- fmt.Errorf("goroutine %d batch %d set %d: %w", g, i, si, err)
							return
						}
					}
					if out[0].Timestamp < lastTS {
						errCh <- fmt.Errorf("goroutine %d: batch timestamp went backwards %d -> %d", g, lastTS, out[0].Timestamp)
						return
					}
					lastTS = out[0].Timestamp
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestOrderedServingLargeResponses pins the aliasing rule of the in-order
// serving loop now that the response buffer is reused across requests: a
// response above the coalescing threshold is referenced zero-copy by the
// frame batch, so it must be flushed before the next request is encoded
// into the same buffer. Concurrent goroutines pipeline distinct
// 300-PMID fetches (4.8 KB answers) on one connection; an answer
// overwritten before it was written would echo another request's PMIDs.
func TestOrderedServingLargeResponses(t *testing.T) {
	_, _, addr := startPipelineDaemon(t, 600)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pmids := make([]uint32, 300)
			for i := range pmids {
				pmids[i] = uint32(g*30 + i + 1)
			}
			var res FetchResult
			for round := 0; round < 50; round++ {
				if err := c.FetchInto(pmids, &res); err != nil {
					errCh <- err
					return
				}
				for i, v := range res.Values {
					if v.PMID != pmids[i] || v.Status != StatusOK {
						errCh <- fmt.Errorf("goroutine %d round %d: value %d = %+v, asked PMID %d", g, round, i, v, pmids[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
