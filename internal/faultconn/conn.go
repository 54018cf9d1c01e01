package faultconn

import (
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"papimc/internal/xrand"
)

// conn is one fault-injected connection. Each direction owns an
// independent dirState so read faults and write faults never correlate.
type conn struct {
	net.Conn
	in *Injector
	id int

	rd dirState
	wr dirState

	// Deadlines are mirrored here so a Stall can honour them without
	// touching the underlying connection (a stalled stream never calls
	// into it). Guarded by dlMu; the underlying conn still gets the
	// deadline too, for real reads in flight.
	dlMu       sync.Mutex
	rdDeadline time.Time
	wrDeadline time.Time

	closeOnce sync.Once
}

// dirState is one direction's fault stream: the byte offset so far and
// the upcoming fault offsets, all drawn from a per-direction RNG
// substream. An event's offset E means "fires once E bytes have passed"
// — except Corrupt, where E is the index of the byte that gets flipped.
type dirState struct {
	mu  sync.Mutex
	in  *Injector
	id  int
	dir Dir
	rng *xrand.Source

	off         int64
	nextReset   int64 // -1 = never
	nextStall   int64
	nextCorrupt int64
	nextLatency int64
	exact       []Fault // exact-offset faults for this conn+dir, sorted
	pending     error   // terminal error delivered to all further calls

	// A read fault holds back the byte whose arrival fired it; held
	// marks hold[0] as not yet delivered.
	hold [1]byte
	held bool
}

// init seeds the direction's substreams and draws the first offsets.
func (d *dirState) init(in *Injector, id int, dir Dir, seed uint64) {
	d.in, d.id, d.dir = in, id, dir
	d.rng = xrand.New(seed)
	s := in.sched
	d.nextReset = d.draw(s.ResetEvery)
	d.nextStall = d.draw(s.StallEvery)
	d.nextCorrupt = d.draw(s.CorruptEvery)
	d.nextLatency = d.draw(s.LatencyEvery)
	for _, f := range s.Exact {
		if f.Conn == id && f.Dir == dir && f.Kind != Refuse {
			d.exact = append(d.exact, f)
		}
	}
	sort.Slice(d.exact, func(i, j int) bool { return d.exact[i].Off < d.exact[j].Off })
}

// draw samples the next fault offset for a mean spacing, or -1 when the
// fault is disabled. The spacing is uniform on [1, 2*every], giving mean
// ~every without the unbounded tail an exponential would add.
func (d *dirState) draw(every int64) int64 {
	if every <= 0 {
		return -1
	}
	return d.off + 1 + d.rng.Int63n(2*every)
}

// boundary returns the stream offset at which the earliest upcoming
// fault acts, plus that fault. For Corrupt the boundary is Off+1 (the
// chunk must deliver the byte so it can be flipped); for the rest it is
// Off itself. ok is false when nothing is scheduled.
func (d *dirState) boundary() (bound int64, f Fault, ok bool) {
	consider := func(off int64, kind Kind) {
		if off < 0 {
			return
		}
		b := off
		if kind == Corrupt {
			b = off + 1
		}
		if !ok || b < bound {
			bound, f, ok = b, Fault{Conn: d.id, Dir: d.dir, Off: off, Kind: kind}, true
		}
	}
	// Priority at equal boundaries is fixed by consider-order: the first
	// scheduled kind wins, deterministically.
	consider(d.nextReset, Reset)
	consider(d.nextStall, Stall)
	consider(d.nextCorrupt, Corrupt)
	consider(d.nextLatency, Latency)
	if len(d.exact) > 0 {
		e := d.exact[0]
		consider(e.Off, e.Kind)
	}
	return bound, f, ok
}

// fired advances the state past a fault that just fired, so it cannot
// refire: probabilistic faults redraw their next offset, exact faults
// pop off the queue.
func (d *dirState) fired(f Fault) {
	if len(d.exact) > 0 && d.exact[0].Off == f.Off && d.exact[0].Kind == f.Kind {
		d.exact = d.exact[1:]
		return
	}
	s := d.in.sched
	switch f.Kind {
	case Reset:
		d.nextReset = d.draw(s.ResetEvery)
	case Stall:
		d.nextStall = d.draw(s.StallEvery)
	case Corrupt:
		d.nextCorrupt = d.draw(s.CorruptEvery)
	case Latency:
		d.nextLatency = d.draw(s.LatencyEvery)
	}
}

// chunkAt draws a deterministic chunk size cap for the current offset.
func (d *dirState) chunkAt(max int) int {
	if max <= 0 {
		return 0
	}
	return 1 + int(mix(uint64(d.off)^d.in.seed^uint64(d.id)<<17)%uint64(max))
}

// pace sleeps the bandwidth-cap duration for n delivered bytes.
func (c *conn) pace(n int) {
	if bw := c.in.sched.BytesPerSec; bw > 0 && n > 0 {
		time.Sleep(time.Duration(int64(n) * int64(time.Second) / bw))
	}
}

// deadline returns the mirrored deadline for a direction (zero = none).
func (c *conn) deadline(dir Dir) time.Time {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	if dir == Read {
		return c.rdDeadline
	}
	return c.wrDeadline
}

// stall blocks like a dead network: until the caller's deadline, capped
// at MaxStall, then surfaces the same timeout error a deadline would.
// The connection is left terminally broken (a real stalled conn does not
// come back; the caller discards it on timeout anyway).
func (c *conn) stall(d *dirState) error {
	wait := c.in.sched.MaxStall
	if dl := c.deadline(d.dir); !dl.IsZero() {
		if until := time.Until(dl); until < wait {
			wait = until
		}
	}
	if wait > 0 {
		time.Sleep(wait)
	}
	d.pending = os.ErrDeadlineExceeded
	return d.pending
}

// reset kills the connection: both the caller and the peer observe it.
func (c *conn) reset(d *dirState) error {
	d.pending = ErrReset
	c.closeOnce.Do(func() { c.Conn.Close() })
	return ErrReset
}

// Read implements net.Conn. It delivers bytes up to the next fault
// boundary (and within the chunk cap), then fires the fault exactly at
// its scheduled stream offset — once the byte at that offset has
// arrived, not as soon as a Read is posted there. A pipelined client
// keeps a Read posted on an idle connection, and a fault fired there
// would meet no request. The byte is held back: a Latency delivers it
// after the delay; a Reset or Stall breaks the conn, so it never is.
func (c *conn) Read(p []byte) (int, error) {
	d := &c.rd
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.pending != nil {
			return 0, d.pending
		}
		if len(p) == 0 {
			return c.Conn.Read(p)
		}
		bound, f, ok := d.boundary()
		if ok && bound == d.off && f.Kind != Corrupt {
			if !d.held {
				if _, err := io.ReadFull(c.Conn, d.hold[:]); err != nil {
					return 0, err // closed or past its deadline: nothing fires
				}
				d.held = true
			}
			d.fired(f)
			c.in.record(f)
			switch f.Kind {
			case Reset:
				return 0, c.reset(d)
			case Stall:
				return 0, c.stall(d)
			case Latency:
				time.Sleep(c.in.sched.LatencyAmount)
				continue
			}
		}
		n := len(p)
		if ok {
			if gap := bound - d.off; gap < int64(n) {
				n = int(gap)
			}
		}
		if ch := d.chunkAt(c.in.sched.MaxChunk); ch > 0 && ch < n {
			n = ch
		}
		m, err := 1, error(nil)
		if d.held {
			p[0], d.held = d.hold[0], false
		} else {
			m, err = c.Conn.Read(p[:n])
		}
		d.off += int64(m)
		c.pace(m)
		if ok && f.Kind == Corrupt && d.off == bound && m > 0 {
			// The chunk was capped to end right after the target byte, so
			// the flipped byte is exactly stream offset f.Off.
			p[m-1] ^= 1 << (mix(uint64(f.Off)^c.in.seed) % 8)
			d.fired(f)
			c.in.record(f)
		}
		return m, err
	}
}

// Write implements net.Conn. The whole buffer is written unless a fatal
// fault fires, in which case the byte count written so far is returned
// with the error (as the net.Conn contract requires).
func (c *conn) Write(p []byte) (int, error) {
	d := &c.wr
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for total < len(p) {
		if d.pending != nil {
			return total, d.pending
		}
		bound, f, ok := d.boundary()
		if ok && bound == d.off && f.Kind != Corrupt {
			d.fired(f)
			c.in.record(f)
			switch f.Kind {
			case Reset:
				return total, c.reset(d)
			case Stall:
				return total, c.stall(d)
			case Latency:
				time.Sleep(c.in.sched.LatencyAmount)
				continue
			}
		}
		n := len(p) - total
		if ok {
			if gap := bound - d.off; gap < int64(n) {
				n = int(gap)
			}
		}
		if ch := d.chunkAt(c.in.sched.MaxChunk); ch > 0 && ch < n {
			n = ch
		}
		seg := p[total : total+n]
		corrupting := ok && f.Kind == Corrupt && d.off+int64(n) == bound
		if corrupting {
			// Never mutate the caller's buffer: corrupt a copy.
			tmp := make([]byte, n)
			copy(tmp, seg)
			tmp[n-1] ^= 1 << (mix(uint64(f.Off)^c.in.seed) % 8)
			seg = tmp
		}
		m, err := c.Conn.Write(seg)
		d.off += int64(m)
		total += m
		c.pace(m)
		if corrupting && m == n {
			d.fired(f)
			c.in.record(f)
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Close implements net.Conn.
func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.Conn.Close() })
	return err
}

// SetDeadline implements net.Conn, mirroring the deadline for stalls.
func (c *conn) SetDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rdDeadline, c.wrDeadline = t, t
	c.dlMu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.rdDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.wrDeadline = t
	c.dlMu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}
