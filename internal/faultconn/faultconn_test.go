package faultconn

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"
)

// pipePair builds a loopback TCP pair: the client side is dialed through
// the injector, the server side is plain. Loopback (not net.Pipe) so that
// buffered writes and real deadlines behave like production.
func pipePair(t *testing.T, in *Injector) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dial := in.Dial(func() (net.Conn, error) {
		return net.Dial("tcp", ln.Addr().String())
	})
	client, err = dial()
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

// pump copies n pattern bytes server->client and returns what the client
// read before any error.
func pump(t *testing.T, in *Injector, n int) (got []byte, err error) {
	t.Helper()
	client, server := pipePair(t, in)
	go func() {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i)
		}
		server.Write(buf)
		server.Close()
	}()
	got, err = io.ReadAll(client)
	return got, err
}

func TestZeroScheduleIsTransparent(t *testing.T) {
	in := New(1, Schedule{})
	got, err := pump(t, in, 4096)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 4096 {
		t.Fatalf("got %d bytes, want 4096", len(got))
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("byte %d = %#x, want %#x", i, b, byte(i))
		}
	}
	if tr := in.Trace(); len(tr) != 0 {
		t.Fatalf("zero schedule fired faults: %v", tr)
	}
}

func TestExactResetAtOffset(t *testing.T) {
	in := New(7, Schedule{Exact: []Fault{{Conn: 0, Dir: Read, Off: 100, Kind: Reset}}})
	got, err := pump(t, in, 4096)
	if !errors.Is(err, ErrReset) {
		t.Fatalf("err = %v, want ErrReset", err)
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d bytes before reset, want exactly 100", len(got))
	}
	want := []Fault{{Conn: 0, Dir: Read, Off: 100, Kind: Reset}}
	if tr := in.Trace(); !reflect.DeepEqual(tr, want) {
		t.Fatalf("trace = %v, want %v", tr, want)
	}
	if st := in.Stats(); st.Resets != 1 || st.Fatal() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExactCorruptFlipsExactlyOneByte(t *testing.T) {
	const off = 1234
	in := New(9, Schedule{Exact: []Fault{{Conn: 0, Dir: Read, Off: off, Kind: Corrupt}}})
	got, err := pump(t, in, 4096)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 4096 {
		t.Fatalf("got %d bytes, want 4096", len(got))
	}
	var flipped []int
	for i, b := range got {
		if b != byte(i) {
			flipped = append(flipped, i)
		}
	}
	if len(flipped) != 1 || flipped[0] != off {
		t.Fatalf("flipped offsets = %v, want [%d]", flipped, off)
	}
	if diff := got[off] ^ byte(off%256); diff&(diff-1) != 0 {
		t.Fatalf("offset %d changed by %#x, want a single-bit flip", off, diff)
	}
}

func TestDeterministicTraceAcrossRuns(t *testing.T) {
	sched := Schedule{ResetEvery: 700, CorruptEvery: 900, LatencyEvery: 500, MaxChunk: 64}
	run := func() ([]Fault, Stats, []byte) {
		in := New(42, sched)
		got, _ := pump(t, in, 8192)
		return in.Trace(), in.Stats(), got
	}
	tr1, st1, got1 := run()
	tr2, st2, got2 := run()
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatalf("traces differ:\n%v\n%v", tr1, tr2)
	}
	if st1 != st2 {
		t.Fatalf("stats differ: %+v vs %+v", st1, st2)
	}
	if !bytes.Equal(got1, got2) {
		t.Fatalf("delivered bytes differ (len %d vs %d)", len(got1), len(got2))
	}
	if len(tr1) == 0 {
		t.Fatal("schedule fired nothing over 8KiB; expected activity")
	}
}

func TestDialRefusalProbOne(t *testing.T) {
	in := New(3, Schedule{RefuseProb: 1})
	dial := in.Dial(func() (net.Conn, error) {
		t.Fatal("underlying dial must not run on refusal")
		return nil, nil
	})
	for i := 0; i < 3; i++ {
		if _, err := dial(); !errors.Is(err, ErrRefused) {
			t.Fatalf("dial %d: err = %v, want ErrRefused", i, err)
		}
	}
	if st := in.Stats(); st.Refusals != 3 || st.Conns != 3 {
		t.Fatalf("stats = %+v, want 3 refusals over 3 conns", st)
	}
}

func TestListenerRefusalClosesConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	in := New(5, Schedule{Exact: []Fault{{Conn: 0, Kind: Refuse}}})
	fln := in.Listener(ln)

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := fln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()

	// First dial: accepted then refused server-side — the client observes
	// EOF/reset on read. Second dial survives.
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("refused conn delivered data")
	}
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	select {
	case c := <-accepted:
		c.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("second connection never accepted")
	}
	if st := in.Stats(); st.Refusals != 1 {
		t.Fatalf("stats = %+v, want 1 refusal", st)
	}
}

func TestMaxChunkCapsReads(t *testing.T) {
	in := New(11, Schedule{MaxChunk: 16})
	client, server := pipePair(t, in)
	go func() {
		server.Write(make([]byte, 4096))
		server.Close()
	}()
	buf := make([]byte, 4096)
	total := 0
	for {
		n, err := client.Read(buf)
		if n > 16 {
			t.Fatalf("read returned %d bytes, cap is 16", n)
		}
		total += n
		if err != nil {
			break
		}
	}
	if total != 4096 {
		t.Fatalf("total %d, want 4096", total)
	}
}

func TestStallHonorsReadDeadline(t *testing.T) {
	in := New(13, Schedule{
		Exact:    []Fault{{Conn: 0, Dir: Read, Off: 10, Kind: Stall}},
		MaxStall: 10 * time.Second, // deadline must win
	})
	client, server := pipePair(t, in)
	go func() {
		server.Write(make([]byte, 64))
	}()
	if _, err := io.ReadFull(client, make([]byte, 10)); err != nil {
		t.Fatalf("pre-stall read: %v", err)
	}
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := client.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed < 40*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("stall returned after %v, want ~50ms", elapsed)
	}
	// The stream is terminally broken after a stall.
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("post-stall read err = %v, want deadline exceeded", err)
	}
}

func TestStallCappedByMaxStall(t *testing.T) {
	in := New(17, Schedule{
		Exact:    []Fault{{Conn: 0, Dir: Read, Off: 0, Kind: Stall}},
		MaxStall: 30 * time.Millisecond,
	})
	client, server := pipePair(t, in)
	server.Write([]byte{1}) // a read fault fires only once its byte arrives
	start := time.Now()
	_, err := client.Read(make([]byte, 1)) // no deadline set
	elapsed := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed < 20*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("stall returned after %v, want ~30ms", elapsed)
	}
}

// TestReadFaultWaitsForItsByte: a read fault fires when the byte at its
// offset arrives, not when a Read is merely posted there — a reader
// waiting on an idle connection (a pipelined client's demux loop) meets
// no fault until the peer sends.
func TestReadFaultWaitsForItsByte(t *testing.T) {
	in := New(31, Schedule{Exact: []Fault{{Conn: 0, Dir: Read, Off: 0, Kind: Reset}}})
	client, server := pipePair(t, in)
	client.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle read err = %v, want deadline exceeded", err)
	}
	if tr := in.Trace(); len(tr) != 0 {
		t.Fatalf("fault fired on an idle connection: %v", tr)
	}
	client.SetReadDeadline(time.Time{})
	server.Write([]byte{1})
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, ErrReset) {
		t.Fatalf("read after the byte arrived: err = %v, want ErrReset", err)
	}
	if st := in.Stats(); st.Resets != 1 {
		t.Fatalf("stats = %+v, want 1 reset", st)
	}
}

// TestLatencyDeliversHeldByte: the byte whose arrival fired a Latency is
// delivered after the delay — and a Corrupt at the same offset still
// flips it — so the stream stays complete.
func TestLatencyDeliversHeldByte(t *testing.T) {
	const off = 100
	in := New(37, Schedule{
		Exact: []Fault{
			{Conn: 0, Dir: Read, Off: off, Kind: Latency},
			{Conn: 0, Dir: Read, Off: off, Kind: Corrupt},
		},
		MaxChunk: 16,
	})
	got, err := pump(t, in, 1024)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 1024 {
		t.Fatalf("got %d bytes, want 1024", len(got))
	}
	for i, b := range got {
		if (b != byte(i)) != (i == off) {
			t.Fatalf("byte %d = %#x; want only offset %d flipped", i, b, off)
		}
	}
	if st := in.Stats(); st.Latencies != 1 || st.Corrupts != 1 {
		t.Fatalf("stats = %+v, want 1 latency and 1 corrupt", st)
	}
}

func TestWriteResetReportsPartialCount(t *testing.T) {
	in := New(19, Schedule{Exact: []Fault{{Conn: 0, Dir: Write, Off: 50, Kind: Reset}}})
	client, server := pipePair(t, in)
	go io.Copy(io.Discard, server)
	n, err := client.Write(make([]byte, 200))
	if !errors.Is(err, ErrReset) {
		t.Fatalf("err = %v, want ErrReset", err)
	}
	if n != 50 {
		t.Fatalf("wrote %d before reset, want exactly 50", n)
	}
}

func TestWriteCorruptDoesNotMutateCallerBuffer(t *testing.T) {
	in := New(23, Schedule{Exact: []Fault{{Conn: 0, Dir: Write, Off: 5, Kind: Corrupt}}})
	client, server := pipePair(t, in)
	recv := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(server)
		recv <- b
	}()
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	orig := append([]byte(nil), buf...)
	if _, err := client.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	client.Close()
	if !bytes.Equal(buf, orig) {
		t.Fatal("Write mutated the caller's buffer")
	}
	got := <-recv
	if len(got) != 64 {
		t.Fatalf("peer received %d bytes, want 64", len(got))
	}
	var flipped []int
	for i, b := range got {
		if b != byte(i) {
			flipped = append(flipped, i)
		}
	}
	if len(flipped) != 1 || flipped[0] != 5 {
		t.Fatalf("flipped offsets on the wire = %v, want [5]", flipped)
	}
}

func TestWrapPassThroughWhenDisabled(t *testing.T) {
	in := New(29, Schedule{})
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if w := in.Wrap(c1); w != c1 {
		t.Fatal("zero schedule should return the conn unwrapped")
	}
}
