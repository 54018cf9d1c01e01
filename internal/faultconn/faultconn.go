// Package faultconn is a deterministic fault-injecting transport: it
// wraps net.Conn, net.Listener and dial functions so the serving stack
// (PMCD daemon, pmproxy, archive recorder, clients) can be tested under
// reproducible network failure.
//
// Determinism follows the same discipline as internal/sweep: every
// stochastic decision is drawn from SplitMix64 substreams of one base
// seed, keyed by connection index and stream direction — never by wall
// time or syscall count. Stream faults fire at byte offsets: a fault
// scheduled "after 1234 bytes" fires at exactly that point in the byte
// stream no matter how TCP segments it, how big the peer's bufio reads
// are, or how many goroutines are running. A read fault fires when the
// byte at its offset arrives, never on a Read merely waiting on an idle
// connection. Two runs with the same seed therefore inject
// byte-identical fault traces, which is what makes a chaos-suite
// failure replayable from its seed line.
//
// The fault vocabulary is composable — a Schedule can mix:
//
//   - Refuse: a new connection is refused at dial/accept time.
//   - Reset: the connection dies mid-stream (mid-PDU, mid-handshake).
//   - Stall: the stream silently stops delivering bytes; the caller's
//     deadline (or MaxStall) eventually surfaces a timeout.
//   - Corrupt: a single byte of the stream is bit-flipped in flight.
//   - Latency: a one-off delay is inserted at a stream offset.
//   - BytesPerSec: a bandwidth cap paced per delivered chunk.
//   - MaxChunk: reads and writes are split into short chunks whose sizes
//     are drawn from the offset, exercising partial-I/O handling.
//
// Probabilistic faults are drawn per direction with mean spacing
// (ResetEvery, StallEvery, ...); exact-offset faults (Schedule.Exact)
// pin a fault to one connection, direction and byte for targeted tests
// such as "reset exactly mid-PDU".
package faultconn

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"papimc/internal/xrand"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// Refuse rejects a connection at dial or accept time.
	Refuse Kind = iota
	// Reset kills an established connection mid-stream.
	Reset
	// Stall stops delivering bytes until the caller's deadline (or
	// MaxStall) fires; the caller observes a timeout error.
	Stall
	// Corrupt flips one bit of one stream byte.
	Corrupt
	// Latency inserts a one-off delay at a stream offset.
	Latency
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Refuse:
		return "refuse"
	case Reset:
		return "reset"
	case Stall:
		return "stall"
	case Corrupt:
		return "corrupt"
	case Latency:
		return "latency"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Dir is the stream direction a fault fired on, from the wrapped
// connection's point of view.
type Dir uint8

const (
	// Read faults fire on bytes flowing toward the wrapped side.
	Read Dir = iota
	// Write faults fire on bytes flowing away from the wrapped side.
	Write
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	if d == Write {
		return "write"
	}
	return "read"
}

// Fault is one fired (or, in Schedule.Exact, scheduled) fault event.
// Off is the stream byte offset at which it fires: for Corrupt it is the
// index of the flipped byte; for Reset/Stall/Latency the number of bytes
// delivered before the fault; for Refuse it is always 0.
type Fault struct {
	Conn int
	Dir  Dir
	Off  int64
	Kind Kind
}

// String renders the event as one trace line field.
func (f Fault) String() string {
	return fmt.Sprintf("conn=%d dir=%s off=%d kind=%s", f.Conn, f.Dir, f.Off, f.Kind)
}

// Schedule is a composable fault plan. The zero value injects nothing.
type Schedule struct {
	// RefuseProb is the probability a new connection is refused.
	RefuseProb float64
	// ResetEvery is the mean number of stream bytes between injected
	// resets, per direction. 0 disables.
	ResetEvery int64
	// StallEvery is the mean bytes between silent stalls. 0 disables.
	StallEvery int64
	// CorruptEvery is the mean bytes between single-bit flips. 0 disables.
	CorruptEvery int64
	// LatencyEvery is the mean bytes between inserted delays. 0 disables.
	LatencyEvery int64
	// LatencyAmount is the delay per Latency fault. 0 means 1ms.
	LatencyAmount time.Duration
	// BytesPerSec caps stream bandwidth per direction. 0 means unlimited.
	BytesPerSec int64
	// MaxChunk caps single read/write sizes; each chunk's size is drawn
	// deterministically from the stream offset. 0 means unlimited.
	MaxChunk int
	// MaxStall bounds how long a Stall blocks when the caller set no
	// deadline, and caps the wait even when one is set (so chaos sweeps
	// with generous protocol deadlines still finish). 0 means 2s.
	MaxStall time.Duration
	// Exact pins faults to (Conn, Dir, Off) for targeted tests. Refuse
	// entries match on Conn only.
	Exact []Fault
}

// enabled reports whether the schedule can fire anything at all.
func (s Schedule) enabled() bool {
	return s.RefuseProb > 0 || s.ResetEvery > 0 || s.StallEvery > 0 ||
		s.CorruptEvery > 0 || s.LatencyEvery > 0 || s.BytesPerSec > 0 ||
		s.MaxChunk > 0 || len(s.Exact) > 0
}

// Stats counts fired faults.
type Stats struct {
	Conns     int // connections wrapped (refused ones included)
	Refusals  int
	Resets    int
	Stalls    int
	Corrupts  int
	Latencies int
}

// Fatal is the number of fired faults that necessarily fail the
// in-flight operation: refusals, resets, and stalls. Corruption may or
// may not surface as an error (a flipped value byte decodes fine; a
// flipped length prefix does not), and latency never does.
func (s Stats) Fatal() int { return s.Refusals + s.Resets + s.Stalls }

// String renders the counters as one report field.
func (s Stats) String() string {
	return fmt.Sprintf("conns=%d refuse=%d reset=%d stall=%d corrupt=%d latency=%d",
		s.Conns, s.Refusals, s.Resets, s.Stalls, s.Corrupts, s.Latencies)
}

// ErrRefused is returned by a wrapped dial (and observed by peers of a
// refused accept) when a Refuse fault fires.
var ErrRefused = errors.New("faultconn: connection refused (injected)")

// ErrReset is returned from reads and writes when a Reset fault fires.
var ErrReset = errors.New("faultconn: connection reset (injected)")

// Injector owns a Schedule, a base seed, and the trace of fired faults.
// One Injector represents one faulty network: every connection wrapped
// through it gets the next connection index and its own deterministic
// fault substreams.
type Injector struct {
	seed  uint64
	sched Schedule

	mu    sync.Mutex
	conns int
	trace []Fault
	st    Stats
}

// New builds an Injector firing sched's faults from seed's substreams.
func New(seed uint64, sched Schedule) *Injector {
	if sched.LatencyAmount <= 0 {
		sched.LatencyAmount = time.Millisecond
	}
	if sched.MaxStall <= 0 {
		sched.MaxStall = 2 * time.Second
	}
	return &Injector{seed: seed, sched: sched}
}

// Stats returns the fired-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st
}

// Trace returns the fired faults in canonical (Conn, Dir, Off, Kind)
// order — byte-identical across runs with the same seed and traffic.
func (in *Injector) Trace() []Fault {
	in.mu.Lock()
	out := append([]Fault(nil), in.trace...)
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Conn != b.Conn {
			return a.Conn < b.Conn
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.Off != b.Off {
			return a.Off < b.Off
		}
		return a.Kind < b.Kind
	})
	return out
}

// record notes a fired fault in the trace and counters.
func (in *Injector) record(f Fault) {
	in.mu.Lock()
	in.trace = append(in.trace, f)
	switch f.Kind {
	case Refuse:
		in.st.Refusals++
	case Reset:
		in.st.Resets++
	case Stall:
		in.st.Stalls++
	case Corrupt:
		in.st.Corrupts++
	case Latency:
		in.st.Latencies++
	}
	in.mu.Unlock()
}

// refuseStream salts the per-connection substream that decides refusals,
// keeping it independent of the read/write fault streams.
const refuseStream = 0x5EF05E

// mix is one SplitMix64 scramble, used to derive substream seeds.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// connSeed derives the seed of connection id's fault substreams.
func (in *Injector) connSeed(id int) uint64 {
	return mix(in.seed + uint64(id+1)*0x9E3779B97F4A7C15)
}

// nextID reserves the next connection index.
func (in *Injector) nextID() int {
	in.mu.Lock()
	id := in.conns
	in.conns++
	in.st.Conns++
	in.mu.Unlock()
	return id
}

// refused decides (deterministically, per connection index) whether the
// connection is refused outright.
func (in *Injector) refused(id int) bool {
	for _, f := range in.sched.Exact {
		if f.Kind == Refuse && f.Conn == id {
			return true
		}
	}
	if in.sched.RefuseProb <= 0 {
		return false
	}
	rng := xrand.New(mix(in.connSeed(id) ^ refuseStream))
	return rng.Float64() < in.sched.RefuseProb
}

// Wrap wraps an established connection with the next connection index.
// Refusals do not apply (the connection already exists); use Dial or
// Listener for refusal injection.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	if !in.sched.enabled() {
		return c
	}
	return in.wrap(c, in.nextID())
}

// Dial wraps dial: a Refuse fault fails the dial with ErrRefused before
// dial is even invoked; otherwise the established connection is wrapped
// with stream faults.
func (in *Injector) Dial(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		id := in.nextID()
		if in.refused(id) {
			in.record(Fault{Conn: id, Kind: Refuse})
			return nil, fmt.Errorf("%w (conn %d)", ErrRefused, id)
		}
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return in.wrap(c, id), nil
	}
}

// Listener wraps ln: a Refuse fault closes the accepted connection
// immediately (the peer sees a reset during its handshake); surviving
// connections carry stream faults.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		id := l.in.nextID()
		if l.in.refused(id) {
			l.in.record(Fault{Conn: id, Kind: Refuse})
			c.Close()
			continue
		}
		return l.in.wrap(c, id), nil
	}
}

// wrap builds the faulty conn for an assigned index.
func (in *Injector) wrap(c net.Conn, id int) net.Conn {
	seed := in.connSeed(id)
	fc := &conn{Conn: c, in: in, id: id}
	fc.rd.init(in, id, Read, mix(seed^1))
	fc.wr.init(in, id, Write, mix(seed^2))
	return fc
}
