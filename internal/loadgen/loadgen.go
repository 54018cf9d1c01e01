// Package loadgen drives fetch load against a PCP serving tier (a live
// PMCD daemon or a pmproxy) and reports throughput and latency
// percentiles from log-bucketed histograms. It is the one place in the
// repository (outside bench/) that paces load against the wall clock;
// virtual-time runs are internal/workload's.
//
// Two generation disciplines are supported:
//
//   - Closed loop: W workers issue requests back-to-back. Throughput is
//     what the tier sustains at that concurrency; latency excludes
//     queueing the generator itself created.
//   - Open loop (Options.Schedule): one dispatcher pulls arrivals from a
//     schedule function, waits until each is due and hands it to a free
//     worker. Latency is measured from the scheduled arrival, not from
//     the moment a worker picked the request up, so a tier that can't
//     keep up shows its queueing delay in the percentiles and in the
//     completed/pending split (no coordinated omission). FixedRate is
//     the trivial schedule; a workload spec's or a recorded trace's
//     arrival stream is the other.
//
// Each worker records into its own histogram; histograms are merged
// after the run, so percentile counts are exact with no recording
// contention.
package loadgen

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/stats"
)

// ErrRate rejects a zero or negative arrival rate, typed so callers can
// tell it from a connection failure with errors.Is.
var ErrRate = errors.New("loadgen: rate must be positive")

// Mode names the discipline a Result was measured under.
type Mode int

const (
	// Closed loop: each worker issues the next request as soon as the
	// previous one completes.
	Closed Mode = iota
	// Open loop: requests arrive on a Schedule and latency is measured
	// from the scheduled arrival time.
	Open
)

func (m Mode) String() string {
	if m == Open {
		return "open"
	}
	return "closed"
}

// Fetcher is one load-generation connection to the target tier.
type Fetcher interface {
	Fetch(pmids []uint32) (pcp.FetchResult, error)
}

// BatchFetcher is the optional batching side of a Fetcher. When
// Options.Batch > 1 the generator requires it and issues one FetchBatch
// round trip per Batch sets. *pcp.Client, *pcp.Daemon, *pmproxy.Proxy,
// and *cluster.Federator all implement it.
type BatchFetcher interface {
	FetchBatch(sets [][]uint32) ([]pcp.FetchResult, error)
}

// FetchFunc adapts a function to the Fetcher interface (for in-process
// targets like *pcp.Daemon or *pmproxy.Proxy).
type FetchFunc func(pmids []uint32) (pcp.FetchResult, error)

// Fetch implements Fetcher.
func (f FetchFunc) Fetch(pmids []uint32) (pcp.FetchResult, error) { return f(pmids) }

// Factory builds one Fetcher per worker, plus its cleanup. Workers get
// independent connections so the generator exercises real fan-out.
type Factory func() (Fetcher, func() error, error)

// DialFactory dials a PCP-protocol address (daemon or proxy) once per
// worker, each connection identifying itself as the given tenant
// (carried in-band on the tagged wire; 0 is the default tenant). A
// tenant other than 0 is how a multi-tenant load run addresses a
// QoS-enabled pmproxy.
func DialFactory(addr string, tenant uint32) Factory {
	return func() (Fetcher, func() error, error) {
		c, err := pcp.DialTenant(addr, tenant)
		if err != nil {
			return nil, nil, err
		}
		return c, c.Close, nil
	}
}

// SharedFactory serves every worker from one in-process Fetcher (the
// target must be safe for concurrent use, as Daemon and Proxy are).
func SharedFactory(f Fetcher) Factory {
	return func() (Fetcher, func() error, error) {
		return f, func() error { return nil }, nil
	}
}

// PipelinedFactory shares conns pipelined connections across all
// workers, round-robin, so many workers keep requests in flight on few
// sockets — the pipelined wire path's intended shape (DialFactory's
// socket-per-worker negotiates the same tagged wire but keeps one
// request in flight per connection). Connections are dialed on demand
// and refcounted: the last worker's cleanup closes them, so the same
// Factory value is reusable across Sweep levels.
func PipelinedFactory(addr string, conns int) Factory {
	if conns <= 0 {
		conns = 1
	}
	var (
		mu      sync.Mutex
		clients []*pcp.Client
		refs    int
		next    int
	)
	return func() (Fetcher, func() error, error) {
		mu.Lock()
		defer mu.Unlock()
		var c *pcp.Client
		if len(clients) < conns {
			cc, err := pcp.Dial(addr)
			if err != nil {
				return nil, nil, err
			}
			clients = append(clients, cc)
			c = cc
		} else {
			c = clients[next%len(clients)]
			next++
		}
		refs++
		cleanup := func() error {
			mu.Lock()
			defer mu.Unlock()
			if refs--; refs > 0 {
				return nil
			}
			var err error
			for _, cl := range clients {
				if e := cl.Close(); e != nil && err == nil {
					err = e
				}
			}
			clients, next = nil, 0
			return err
		}
		return c, cleanup, nil
	}
}

// Schedule is an open-loop arrival plan. Schedule(i) is arrival i: its
// offset from the start of the run, which must not decrease with i, and
// how many of Options.PMIDs it fetches (clamped to them; 0 means all).
// ok=false ends the plan. Run asks for i = 0, 1, 2, … in order, so a plan
// may be a stream that ignores i and serves one Run; such a plan is
// bounded by Options.Duration, because a count-bounded run (Ops > 0)
// first asks for arrival Workers×Ops to learn where its window closes.
type Schedule func(i int) (at time.Duration, width int, ok bool)

// FixedRate is the trivial schedule: full-width arrivals evenly spaced
// at perSecond requests per second, without end. It is stateless, so one
// value serves every level of a Sweep.
func FixedRate(perSecond float64) (Schedule, error) {
	if !(perSecond > 0) {
		return nil, fmt.Errorf("%w: got %g", ErrRate, perSecond)
	}
	gap := 1e9 / perSecond
	return func(i int) (time.Duration, int, bool) {
		return time.Duration(float64(i) * gap), 0, true
	}, nil
}

// Options configures one load-generation run.
type Options struct {
	Workers int      // concurrent workers; 0 means 1
	PMIDs   []uint32 // pmid set each request fetches; nil means {1}
	// Schedule, when non-nil, makes the run open loop: arrivals come from
	// the plan, whatever the workers are doing. Nil means closed loop.
	Schedule Schedule
	// Ops is the per-worker request count; an open-loop run offers
	// Workers×Ops arrivals in all. 0 means run until Duration elapses.
	Ops int
	// Duration bounds the run when Ops is 0 (0 means one second): the
	// closed loop's deadline, the open loop's window — arrivals due at or
	// after it are not offered.
	Duration time.Duration
	// Batch, when > 1, bundles that many copies of the request's PMID set
	// into one FetchBatch round trip. The fetchers must implement
	// BatchFetcher. Ops and a Schedule count requests (so a fixed per-set
	// rate R is FixedRate(R/Batch)); reported ops and throughput count
	// fetched sets; a failed request counts one error.
	Batch int
}

// Result is one run's report.
type Result struct {
	Mode    Mode
	Workers int
	Ops     int64
	Errors  int64
	// Shed counts requests the tier rejected with a typed overload
	// status (admission control), kept apart from Errors: a shed is the
	// tier working as configured, an error is the tier failing.
	Shed       int64
	Elapsed    time.Duration
	Throughput float64 // ops per second of Elapsed
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	P999       time.Duration
	Max        time.Duration
	// Open loop only. Window is the span arrivals were offered over:
	// Duration, or in a count-bounded run the offset at which arrival
	// Workers×Ops would have come. Arrivals counts the requests offered,
	// Pending those that came back — served, failed or shed — after the
	// window had closed: the backlog a tier slower than the offered rate
	// leaves behind.
	Window   time.Duration
	Arrivals int64
	Pending  int64
}

// workerOut is one worker's private accumulation, merged after the run.
type workerOut struct {
	hist                     stats.Histogram
	ops, errs, shed, pending int64
}

// count records one finished request of per sets. Typed overload
// rejections (pmproxy admission sheds, travelling as pcp.StatusOverload
// over the wire or wrapping pcp.ErrOverload in process) count as sheds,
// any other failure as an error; only served requests enter the
// histogram.
func (o *workerOut) count(err error, lat time.Duration, per int) {
	switch {
	case err == nil:
		o.hist.Record(lat.Nanoseconds())
		o.ops += int64(per)
	case errors.Is(err, pcp.ErrOverload):
		o.shed++
	default:
		o.errs++
	}
}

// arrival is one scheduled request on its way from the dispatcher to a
// worker.
type arrival struct {
	at    time.Duration
	width int
}

// Run executes one load-generation run at o.Workers concurrency. Every
// worker's connection is up before the clock starts.
func Run(f Factory, o Options) (Result, error) {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if len(o.PMIDs) == 0 {
		o.PMIDs = []uint32{1}
	}
	if o.Ops <= 0 && o.Duration <= 0 {
		o.Duration = time.Second
	}
	per := max(o.Batch, 1)
	ops := make([]func(width int) error, o.Workers)
	for w := range ops {
		fet, cleanup, err := f()
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: worker %d: %w", w, err)
		}
		defer cleanup()
		if ops[w], err = fetchOp(fet, o); err != nil {
			return Result{}, fmt.Errorf("loadgen: worker %d: %w", w, err)
		}
	}

	res := Result{Mode: Closed, Workers: o.Workers}
	var arrivals chan arrival
	window := o.Duration
	if o.Schedule != nil {
		if o.Ops > 0 {
			window, _, _ = o.Schedule(o.Workers * o.Ops)
		}
		res.Mode, res.Window = Open, window
		arrivals = make(chan arrival)
	}
	outs := make([]workerOut, o.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range ops {
		wg.Add(1)
		go func(op func(int) error, out *workerOut) {
			defer wg.Done()
			if arrivals == nil {
				out.runClosed(op, per, o, start)
				return
			}
			for a := range arrivals {
				err := op(a.width)
				// From the scheduled arrival: time spent waiting for a free
				// worker is the tier's queueing delay, not the generator's.
				lat := time.Since(start.Add(a.at))
				out.count(err, lat, per)
				if a.at+lat > window {
					out.pending++
				}
			}
		}(ops[w], &outs[w])
	}
	if arrivals != nil {
		res.Arrivals = dispatch(o, start, window, arrivals)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	var hist stats.Histogram
	for i := range outs {
		res.Ops += outs[i].ops
		res.Errors += outs[i].errs
		res.Shed += outs[i].shed
		res.Pending += outs[i].pending
		hist.Merge(&outs[i].hist)
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Throughput = float64(res.Ops) / s
	}
	res.P50 = time.Duration(hist.Quantile(0.50))
	res.P95 = time.Duration(hist.Quantile(0.95))
	res.P99 = time.Duration(hist.Quantile(0.99))
	res.P999 = time.Duration(hist.Quantile(0.999))
	res.Max = time.Duration(hist.Max())
	return res, nil
}

// fetchOp resolves one worker's per-request operation: a single fetch of
// the first width PMIDs, or — when Options.Batch > 1 — one FetchBatch
// round trip carrying Batch copies of that set.
func fetchOp(fet Fetcher, o Options) (func(width int) error, error) {
	set := func(width int) []uint32 {
		if width <= 0 || width > len(o.PMIDs) {
			return o.PMIDs
		}
		return o.PMIDs[:width]
	}
	if o.Batch <= 1 {
		return func(width int) error {
			_, err := fet.Fetch(set(width))
			return err
		}, nil
	}
	bf, ok := fet.(BatchFetcher)
	if !ok {
		return nil, fmt.Errorf("loadgen: Batch=%d but fetcher %T does not implement BatchFetcher", o.Batch, fet)
	}
	sets := make([][]uint32, o.Batch)
	return func(width int) error {
		s := set(width)
		for i := range sets {
			sets[i] = s
		}
		out, err := bf.FetchBatch(sets)
		if err != nil {
			return err
		}
		if len(out) != len(sets) {
			return fmt.Errorf("loadgen: batch returned %d sets, want %d", len(out), len(sets))
		}
		return nil
	}, nil
}

// spinMargin is how far ahead of an arrival a pacer stops sleeping and
// busy-waits instead. time.Sleep wakes up to ≈ 1 ms late (the network
// poller's timeout is in whole milliseconds), and workers time from the
// scheduled offset, so a pacer that slept to the due time would report
// its own oversleep as latency.
const spinMargin = 2 * time.Millisecond

// pacers counts the open-loop runs in flight in the process, because
// the processors they compete for are the process's. Pacers busy-wait
// only while all of them can and still leave a processor for the
// workers and the network poller; otherwise each sleeps to the due
// time. Yielding inside the wait (runtime.Gosched) is no way out: it
// keeps a goroutine in the global run queue, so no idle processor ever
// blocks in the poller, and loopback round trips read ≈ 1 ms.
var pacers atomic.Int32

// dispatch is the open-loop pacer, the only one: it pulls the plan's
// arrivals in order, waits until each is due and hands it to whichever
// worker is free, blocking while none is — falling behind is then
// visible in every later latency, because workers measure from the
// scheduled offset. It returns the number of arrivals offered.
func dispatch(o Options, start time.Time, window time.Duration, out chan<- arrival) (n int64) {
	defer close(out)
	procs := int32(runtime.GOMAXPROCS(0))
	pacers.Add(1)
	defer pacers.Add(-1)
	for i := 0; o.Ops <= 0 || i < o.Workers*o.Ops; i++ {
		at, width, ok := o.Schedule(i)
		if !ok || (o.Ops <= 0 && at >= window) {
			break
		}
		due, spin := start.Add(at), pacers.Load() < procs
		if d := time.Until(due); !spin && d > 0 {
			time.Sleep(d)
		} else if d > spinMargin {
			time.Sleep(d - spinMargin)
		}
		for spin && time.Now().Before(due) {
		}
		out <- arrival{at, width}
		if spin {
			// Run the worker now, on this processor; the pacer resumes on
			// the spare one.
			runtime.Gosched()
		}
		n++
	}
	return n
}

// runClosed issues requests back to back until the op count or the
// deadline is reached.
func (out *workerOut) runClosed(op func(int) error, per int, o Options, start time.Time) {
	deadline := start.Add(o.Duration)
	for i := 0; ; i++ {
		if o.Ops > 0 && i >= o.Ops {
			return
		}
		if o.Ops <= 0 && !time.Now().Before(deadline) {
			return
		}
		ref := time.Now()
		err := op(0)
		out.count(err, time.Since(ref), per)
	}
}

// Sweep runs Run once per concurrency level.
func Sweep(f Factory, workers []int, o Options) ([]Result, error) {
	results := make([]Result, 0, len(workers))
	for _, w := range workers {
		o.Workers = w
		r, err := Run(f, o)
		if err != nil {
			return nil, fmt.Errorf("loadgen: workers=%d: %w", w, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// Report renders a sweep as an aligned text table.
func Report(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %5s %9s %6s %6s %12s %9s %9s %9s %9s %9s\n",
		"workers", "mode", "ops", "errs", "sheds", "throughput", "p50", "p95", "p99", "p99.9", "max")
	for _, r := range results {
		fmt.Fprintf(&b, "%7d %5s %9d %6d %6d %9.0f/s %9s %9s %9s %9s %9s\n",
			r.Workers, r.Mode, r.Ops, r.Errors, r.Shed, r.Throughput,
			fmtDur(r.P50), fmtDur(r.P95), fmtDur(r.P99), fmtDur(r.P999), fmtDur(r.Max))
		if secs := r.Window.Seconds(); r.Arrivals > 0 && secs > 0 {
			done := float64(r.Arrivals - r.Pending)
			fmt.Fprintf(&b, "%13s offered %.1f/s achieved %.1f/s ratio %.3f pending %d\n", "",
				float64(r.Arrivals)/secs, done/secs, done/float64(r.Arrivals), r.Pending)
		}
	}
	return b.String()
}

// fmtDur renders a latency with three significant figures, stable across
// magnitudes (time.Duration.String is too chatty for table cells).
func fmtDur(d time.Duration) string {
	ns := float64(d.Nanoseconds())
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
