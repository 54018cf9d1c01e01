package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval at a layer boundary the benchmark can
// reach from outside. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0: none known
	Op     uint64 `json:"op"`     // worker<<40 | op sequence; 0: not attributed
}

// traceRing is how many spans each recording goroutine keeps (the
// newest ones): one ring per worker and one for the spans other
// packages' goroutines write.
const traceRing = 1 << 15

// tracer is switched on only for the traced pass; while off, a wrapper
// pays one atomic load. Nothing on a worker's path is shared with
// another worker: with one ring and one ID counter for all, the cores
// traded cache lines on every span and a traced papi_read op cost 6 %
// more than an untraced one.
type tracer struct {
	on     atomic.Bool
	record bool // false: an end-to-end run, which carries no rings
	t0     time.Time
	ctxs   []*opCtx
	// mu orders the orphan spans, which other packages' goroutines
	// write, among themselves and before the read-out; the workers' own
	// are ordered by the end of their pass.
	mu      sync.Mutex
	orphans spanRing
}

// spanRing keeps the newest spans of one writer.
type spanRing struct {
	buf []span
	n   uint64 // spans ever put
}

func (r *spanRing) put(s span) {
	r.buf[r.n%uint64(len(r.buf))] = s
	r.n++
}

func newRing(record bool) spanRing {
	if !record {
		// An end-to-end run never switches the tracer on, and its own
		// live heap should not slow the collector of the system under
		// test.
		return spanRing{}
	}
	return spanRing{buf: make([]span, traceRing)}
}

func newTracer(record bool) *tracer {
	return &tracer{record: record, t0: time.Now(), orphans: newRing(record)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// orphan records a span from a goroutine the benchmark does not own (a
// daemon's resample, a federator's child fetch): its parent and op are
// resolved afterwards by containment in time.
func (t *tracer) orphan(name string, start int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.orphans.put(span{Name: name, Start: start, End: t.now(), ID: t.orphans.n + 1})
	t.mu.Unlock()
}

// opCtx is one worker goroutine's position in the span tree: wrappers
// that run on the worker's goroutine nest under cur. Span IDs are
// worker<<40 | count, so the orphans' (worker 0) never collide.
type opCtx struct {
	tr     *tracer
	worker uint64 // from 1
	seq    uint64 // ops begun
	cur    uint64
	skip   bool // leave this op untraced although the tracer is on
	ring   spanRing
}

// worker returns the context of generator i (from 0): the same one
// however often the stack is set up.
func (t *tracer) worker(i int) *opCtx {
	for len(t.ctxs) <= i {
		t.ctxs = append(t.ctxs, &opCtx{tr: t, worker: uint64(len(t.ctxs) + 1), ring: newRing(t.record)})
	}
	return t.ctxs[i]
}

// open is a started span on a worker goroutine.
type open struct {
	id, parent uint64
	start      int64
}

func (c *opCtx) begin() open {
	if c.skip || !c.tr.on.Load() {
		return open{}
	}
	return c.beginAt(time.Now())
}

func (c *opCtx) end(name string, o open) {
	if o.id != 0 {
		c.endAt(name, o, time.Now())
	}
}

// beginAt and endAt take the clock readings the caller already has: the
// op span shares the runner's own.
func (c *opCtx) beginAt(at time.Time) open {
	if c.skip || !c.tr.on.Load() {
		return open{}
	}
	o := open{id: c.worker<<40 | (c.ring.n + 1), parent: c.cur, start: int64(at.Sub(c.tr.t0))}
	c.cur = o.id
	return o
}

func (c *opCtx) endAt(name string, o open, at time.Time) {
	if o.id == 0 {
		return
	}
	c.cur = o.parent
	c.ring.put(span{Name: name, Start: o.start, End: int64(at.Sub(c.tr.t0)), ID: o.id, Parent: o.parent,
		Op: c.worker<<40 | c.seq})
}

// spans returns the rings' contents ordered by start, with orphans
// attached to the innermost attributed span that contains them.
func (t *tracer) spans() []span {
	var out []span
	t.mu.Lock()
	defer t.mu.Unlock()
	rings := []spanRing{t.orphans}
	for _, c := range t.ctxs {
		rings = append(rings, c.ring)
	}
	for _, r := range rings {
		out = append(out, r.buf[:min(r.n, uint64(len(r.buf)))]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	// Sweep in start order keeping the attributed spans still open; an
	// orphan's parent is the latest-started one that also outlasts it.
	var live []int
	for i := range out {
		s := &out[i]
		keep := live[:0]
		for _, j := range live {
			if out[j].End >= s.Start {
				keep = append(keep, j)
			}
		}
		live = keep
		if s.Op != 0 {
			live = append(live, i)
			continue
		}
		for k := len(live) - 1; k >= 0; k-- {
			if p := out[live[k]]; p.End >= s.End {
				s.Parent, s.Op = p.ID, p.Op
				break
			}
		}
	}
	return out
}

// selfTimes returns, per span name, every span's self time in
// nanoseconds: its duration minus the part its children cover.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		// Children arrive in start order; merge overlaps (parallel
		// child fetches) so cover never exceeds the parent.
		var cover, hi int64
		hi = s.Start
		for _, c := range children[s.ID] {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				cover += end - lo
				hi = end
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-cover))
	}
	return out
}

// traceFile is what the traced pass leaves in bench/out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfUS   map[string]float64 `json:"median_self_us_by_name"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir, workload string, seed uint64, spans []span) error {
	tf := traceFile{Workload: workload, Seed: seed, SelfUS: map[string]float64{}, Spans: spans}
	for name, v := range selfTimes(spans) {
		tf.SelfUS[name] = median(v) / 1e3
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
