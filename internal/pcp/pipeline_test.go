package pcp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papimc/internal/leakcheck"
	"papimc/internal/simtime"
)

// startPipelineDaemon serves a daemon of n self-checking timestamp
// metrics over TCP with the clock advanced past one sample interval.
func startPipelineDaemon(t *testing.T, n int) (*Daemon, *simtime.Clock, string) {
	t.Helper()
	leakcheck.NoGoroutineLeak(t)
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

// startV1OnlyServer hand-rolls a pre-negotiation daemon: correct magic
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
					typ, payload, err := ReadPDUInto(br, nil)
					if err != nil {
						return
					}
					var respType uint8
					var resp []byte
					switch typ {
					case PDUNamesReq:
						respType, resp = PDUNamesResp, AppendNamesResp(nil, names)
					case PDUFetchReq:
						pmids, err := DecodeFetchReqInto(payload, nil)
						if err != nil {
							respType, resp = PDUError, AppendError(nil, err.Error())
							break
						}
						out := res
						out.Values = make([]FetchValue, len(pmids))
						for i, id := range pmids {
							out.Values[i] = FetchValue{PMID: id, Status: StatusOK, Value: uint64(res.Timestamp)}
						}
						respType, resp = PDUFetchResp, AppendFetchResp(nil, out)
					default:
						respType, resp = PDUError, AppendError(nil, fmt.Sprintf("unknown PDU type %d", typ))
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
// older peers: new<->new lands on Version3 tagged frames, while a client
// capped at 2 (the retired 9-byte framing) or at 1 against a new daemon,
// and a new client against a v1-only daemon, all fall back to Version1
// lockstep — with results identical to the upgraded pairing's.
func TestVersionNegotiationMatrix(t *testing.T) {
	_, _, addr := startPipelineDaemon(t, 4)
	pmids := []uint32{1, 2, 3, 4}

	// New client, new daemon: Version3 pipelined tagged frames.
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

	// Client capped at 2, new daemon: lockstep, same answers.
	cV2, err := DialMax(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cV2.Close()
	if v := cV2.Version(); v != Version1 {
		t.Fatalf("client capped at 2 negotiated version %d, want %d", v, Version1)
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
		t.Fatalf("namespaces differ across versions:\nv3: %v\ncapped at 2: %v", namesNew, namesV2)
	}
	if !reflect.DeepEqual(resNew, resV2) {
		t.Fatalf("fetch results differ across versions:\nv3: %+v\ncapped at 2: %+v", resNew, resV2)
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
		t.Fatalf("namespaces differ across versions:\nv3: %v\nv1: %v", namesNew, namesOld)
	}
	if !reflect.DeepEqual(resNew, resOld) {
		t.Fatalf("fetch results differ across versions:\nv3: %+v\nv1: %+v", resNew, resOld)
	}

	// The whole-namespace and batch fetches go through the same seam: the
	// lockstep clients (whose batch is one round trip per set) return what
	// the Version3 client does.
	all := make([]uint32, len(namesNew))
	for i, e := range namesNew {
		all[i] = e.PMID
	}
	sets := [][]uint32{{1, 2}, {4}, {1, 2}}
	allNew, err := cNew.Fetch(all)
	if err != nil {
		t.Fatal(err)
	}
	batchNew, err := cNew.FetchBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(allNew.Values) != 4 || len(batchNew) != len(sets) {
		t.Fatalf("full fetch returned %d values, FetchBatch %d sets", len(allNew.Values), len(batchNew))
	}
	for _, c := range []*Client{cV2, cOld} {
		got, err := c.Fetch(all)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := c.FetchBatch(sets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, allNew) {
			t.Fatalf("full fetch at version %d differs:\ngot:  %+v\nwant: %+v", c.Version(), got, allNew)
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
	addr := fakeV3Server(t, func(br *bufio.Reader, bw *bufio.Writer) {
		var parkedTag, parkedTenant uint32
		parked := false
		answer := func(tag, tenant uint32) bool {
			body := AppendFetchResp(nil, FetchResult{Timestamp: 9, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 9}}})
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
	})

	c, err := Dial(addr)
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

// fakeV3Server accepts one connection, completes the handshake and a
// Version3 negotiation, and hands the connection to serve.
func fakeV3Server(t *testing.T, serve func(br *bufio.Reader, bw *bufio.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
		typ, payload, err := ReadPDUInto(br, nil)
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
		serve(br, bw)
	}()
	return ln.Addr().String()
}

// TestPipelinedUnissuedTagFailsFast: a response under a tag the client
// never issued is a protocol violation, not an abandoned request's late
// answer. It fails the connection with ErrProtocol at once instead of
// leaving the request it was meant for to wait out its deadline.
func TestPipelinedUnissuedTagFailsFast(t *testing.T) {
	addr := fakeV3Server(t, func(br *bufio.Reader, bw *bufio.Writer) {
		for {
			typ, tag, tenant, _, err := ReadWidePDUInto(br, nil)
			if err != nil {
				return
			}
			if typ != PDUFetchReq {
				continue
			}
			body := AppendFetchResp(nil, FetchResult{Timestamp: 9, Values: []FetchValue{{PMID: 1, Status: StatusOK, Value: 9}}})
			if WriteWidePDU(bw, PDUFetchResp, tag+1, tenant, body) != nil || bw.Flush() != nil {
				return
			}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const deadline = 2 * time.Second
	c.SetTimeout(deadline)

	start := time.Now()
	_, err = c.Fetch([]uint32{1})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("fetch answered under tag+1: err = %v, want ErrProtocol", err)
	}
	if elapsed := time.Since(start); elapsed > deadline/4 {
		t.Fatalf("fetch answered under tag+1 failed after %v, deadline %v: it waited the deadline out", elapsed, deadline)
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
	if c.Version() < Version3 {
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

// paddedHandler answers a one-set batch {size, id} with a response
// payload of exactly size bytes: eight values carrying id (none when
// they would not fit), topped up by the partial-answer cause. The
// smallest batch answer is batchRespMin bytes, so smaller sizes get that.
// A set of any other length is a plain fetch, answered with its PMIDs.
// It serves the values from the server's result storage and overwrites
// all of it on entry, as a handler that reuses its result buffer does;
// above depth 1 it also sleeps, so ids finish out of order.
type paddedHandler struct {
	Handler
	concurrent bool
}

const (
	batchRespMin  = 28 // one empty missing-node name, empty cause, one empty set
	paddedValues  = 8
	paddedMinSize = batchRespMin + 16*paddedValues
)

// padByte is byte i of the filler of the payload asked for as {size, id}.
func padByte(size int, id uint32, i int) byte { return byte(uint32(size) + id*131 + uint32(i)*7) }

func (h paddedHandler) Fetch(_ uint32, sets [][]uint32, results []FetchResult) ([]FetchResult, error) {
	var vals []FetchValue
	if cap(results) > 0 {
		vals = results[:1][0].Values[:0]
	}
	if len(sets[0]) != 2 {
		for _, id := range sets[0] {
			vals = append(vals, FetchValue{PMID: id, Status: StatusOK, Value: uint64(id)})
		}
		return append(results[:0], FetchResult{Timestamp: 1, Values: vals}), nil
	}
	size, id := int(sets[0][0]), sets[0][1]
	if h.concurrent {
		time.Sleep(time.Duration(id%4) * 200 * time.Microsecond)
	}
	vals = vals[:cap(vals)]
	for i := range vals {
		vals[i] = FetchValue{PMID: 0xDEAD, Status: StatusValueError, Value: 0xDEAD}
	}
	vals = vals[:0]
	pad := size - batchRespMin
	if size >= paddedMinSize {
		pad -= 16 * paddedValues
		for j := 0; j < paddedValues; j++ {
			vals = append(vals, FetchValue{PMID: id, Status: StatusOK, Value: uint64(id)<<32 | uint64(j)})
		}
	}
	cause := make([]byte, max(pad, 0))
	for i := range cause {
		cause[i] = padByte(size, id, i)
	}
	return append(results[:0], FetchResult{Timestamp: int64(id), Values: vals}), &PartialError{Missing: []string{""}, Cause: string(cause)}
}

// TestOrderedServingLargeResponses drives every user of frameBatch —
// the in-order serving loop, the depth-32 loop and the pipelined
// client's writer — with payloads on both sides of every size the frame
// path treats specially (nothing, the flush bound, the largest PDU;
// 4096 was the old zero-copy threshold), from eight goroutines sharing
// one connection so that frames queue behind one another, and checks
// every payload byte for byte. A batch copies what it is given: the
// in-order handler overwrites its result buffer on its next call while
// earlier answers may still be queued, and an answer damaged by that
// would carry poison or another request's id.
func TestOrderedServingLargeResponses(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	sizes := []int{0, 4095, 4096, 4097, serveFlushBytes + 1, MaxPDUBytes}
	const callers = 8
	const rounds = 18 // each caller sends every size three times

	for _, depth := range []int{1, 32} {
		t.Run(fmt.Sprintf("serve-depth-%d", depth), func(t *testing.T) {
			srv := NewServer(depth, paddedHandler{concurrent: depth > 1})
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						size, id := sizes[(round+g)%len(sizes)], uint32(g<<16|round)
						var pe *PartialError
						results, err := c.FetchBatchInto([][]uint32{{uint32(size), id}}, nil)
						if !errors.As(err, &pe) {
							t.Errorf("caller %d round %d: %v, want the padded partial answer", g, round, err)
							return
						}
						vals := results[0].Values
						if got, want := batchRespMin+len(pe.Cause)+16*len(vals), max(size, batchRespMin); got != want {
							t.Errorf("caller %d round %d: payload of %d bytes, want %d", g, round, got, want)
							return
						}
						for j, v := range vals {
							if want := (FetchValue{PMID: id, Status: StatusOK, Value: uint64(id)<<32 | uint64(j)}); v != want {
								t.Errorf("caller %d round %d size %d: value %d = %+v, want %+v", g, round, size, j, v, want)
								return
							}
						}
						for i := 0; i < len(pe.Cause); i++ {
							if pe.Cause[i] != padByte(size, id, i) {
								t.Errorf("caller %d round %d size %d: filler byte %d differs", g, round, size, i)
								return
							}
						}
					}
				}()
			}
			wg.Wait()

			// The largest frames grew the loop's batch buffer past what it
			// keeps; small frames afterwards must settle back to a serving
			// cycle that allocates nothing, on either end.
			if depth > 1 || raceEnabled {
				return // per-request goroutines, and the race detector, allocate
			}
			pmids := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
			var res FetchResult
			fetch := func() {
				if err := c.FetchInto(pmids, &res); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				fetch()
			}
			if got := testing.AllocsPerRun(200, fetch); got != 0 {
				t.Errorf("small-frame round trip after large ones allocates %.1f objects, want 0", got)
			}
		})
	}

	t.Run("client-writer", func(t *testing.T) {
		// The writer's frames go to a peer that sends every frame back.
		near, far := net.Pipe()
		echoed := make(chan error, 1)
		go func() {
			br := bufio.NewReader(far)
			var buf []byte
			for {
				typ, tag, tenant, payload, err := ReadWidePDUInto(br, buf)
				if err == nil {
					buf = payload
					err = WriteWidePDU(far, typ, tag, tenant, payload)
				}
				if err != nil {
					echoed <- err
					return
				}
			}
		}()
		p := newPipeline(near, bufio.NewReader(near))
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					size, id := sizes[(round+g)%len(sizes)], uint32(g<<16|round)
					call := getCall()
					call.typ, call.req = PDUFetchReq, call.req[:0]
					for i := 0; i < size; i++ {
						call.req = append(call.req, padByte(size, id, i))
					}
					if err := p.roundTrip(call, 0); err != nil {
						t.Errorf("caller %d round %d: %v", g, round, err)
						return
					}
					if len(call.resp) != size {
						t.Errorf("caller %d round %d: %d bytes came back, sent %d", g, round, len(call.resp), size)
						return
					}
					for i, b := range call.resp {
						if b != padByte(size, id, i) {
							t.Errorf("caller %d round %d size %d: byte %d differs", g, round, size, i)
							return
						}
					}
					putCall(call)
				}
			}()
		}
		wg.Wait()
		p.close()
		far.Close()
		if err := <-echoed; err == nil {
			t.Error("echo peer ended without an error after close")
		}
	})

	// One oversized frame must not pin its buffer to the connection.
	var b frameBatch
	if err := b.append(PDUFetchResp, 1, 0, make([]byte, MaxPDUBytes)); err != nil {
		t.Fatal(err)
	}
	if err := b.flush(io.Discard); err != nil {
		t.Fatal(err)
	}
	if cap(b.buf) > 2*serveFlushBytes {
		t.Errorf("batch keeps %d bytes after flushing one large frame, want at most %d", cap(b.buf), 2*serveFlushBytes)
	}
	if err := b.append(PDUFetchResp, 1, 0, make([]byte, MaxPDUBytes+1)); !errors.Is(err, ErrPDUTooLarge) {
		t.Errorf("append of an oversized payload: %v, want ErrPDUTooLarge", err)
	}
}
