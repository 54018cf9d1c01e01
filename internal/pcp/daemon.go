package pcp

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"papimc/internal/simtime"
)

// Metric is one exported metric: a name and a privileged read function.
type Metric struct {
	Name string
	// Read returns the metric value as of simulated time t. The daemon
	// holds whatever credential Read needs; clients never do.
	Read func(t simtime.Time) (uint64, error)
}

// metricTable is the daemon's immutable metric namespace. Register
// publishes a new table (copy-on-write) instead of mutating this one, so
// readers navigate it without locks.
type metricTable struct {
	metrics []Metric          // PMID = index+1
	byName  map[string]uint32 // never written after publication
	names   []NameEntry       // precomputed Names() answer
}

// snapshot is one immutable published sample: every metric's value as of
// one read of the clock, bound to the table it was sampled against.
// Fetches serve from the current snapshot with zero locking; a snapshot
// is never modified after publication.
type snapshot struct {
	table  *metricTable
	at     simtime.Time
	values []FetchValue // values[i] is table.metrics[i], PMID i+1
}

// Daemon is the PMCD analogue: it samples its metrics at a fixed
// interval of simulated time and serves the latest sample to clients.
//
// Serving is lock-free in the steady state: the current sample is an
// immutable snapshot published through an atomic pointer, so concurrent
// fetches scale with cores instead of serializing on a daemon mutex.
// When the snapshot is older than the sampling interval (or the
// namespace grew), exactly one fetching goroutine resamples — the
// single-flight resample — while the rest wait for what it publishes.
type Daemon struct {
	clock    *simtime.Clock
	interval simtime.Duration

	table    atomic.Pointer[metricTable]
	snap     atomic.Pointer[snapshot]
	sampling atomic.Bool // CAS single-flight gate for resampling
	regMu    sync.Mutex  // serializes Register's copy-on-write

	srv *Server // the network side: in-order serving (depth 1)
}

// NewDaemon builds a daemon sampling the given metrics every interval.
// Metric names must be unique; PMIDs are assigned in sorted-name order.
func NewDaemon(clock *simtime.Clock, interval simtime.Duration, metrics []Metric) (*Daemon, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("pcp: non-positive sample interval %d", interval)
	}
	ms := append([]Metric(nil), metrics...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	byName := make(map[string]uint32, len(ms))
	for i, m := range ms {
		if m.Read == nil {
			return nil, fmt.Errorf("pcp: metric %q has no reader", m.Name)
		}
		if _, dup := byName[m.Name]; dup {
			return nil, fmt.Errorf("pcp: duplicate metric %q", m.Name)
		}
		byName[m.Name] = uint32(i + 1)
	}
	d := &Daemon{clock: clock, interval: interval}
	d.srv = NewServer(1, daemonHandler{d})
	d.table.Store(newTable(ms, byName))
	return d, nil
}

func newTable(ms []Metric, byName map[string]uint32) *metricTable {
	names := make([]NameEntry, len(ms))
	for i, m := range ms {
		names[i] = NameEntry{PMID: uint32(i + 1), Name: m.Name}
	}
	return &metricTable{metrics: ms, byName: byName, names: names}
}

// Names returns the daemon's metric table.
func (d *Daemon) Names() []NameEntry {
	return append([]NameEntry(nil), d.table.Load().names...)
}

// Register adds a metric to a running daemon's namespace — the analogue
// of a PCP agent (PMDA) coming online after pmcd has started. The new
// metric gets the next free PMID (registration order, not sorted-name
// order) and becomes fetchable immediately: publishing the new table
// invalidates the current snapshot, so the next fetch resamples.
func (d *Daemon) Register(m Metric) error {
	if m.Read == nil {
		return fmt.Errorf("pcp: metric %q has no reader", m.Name)
	}
	d.regMu.Lock()
	defer d.regMu.Unlock()
	old := d.table.Load()
	if _, dup := old.byName[m.Name]; dup {
		return fmt.Errorf("pcp: duplicate metric %q", m.Name)
	}
	ms := make([]Metric, len(old.metrics), len(old.metrics)+1)
	copy(ms, old.metrics)
	ms = append(ms, m)
	byName := make(map[string]uint32, len(ms))
	for k, v := range old.byName {
		byName[k] = v
	}
	byName[m.Name] = uint32(len(ms))
	d.table.Store(newTable(ms, byName))
	return nil
}

// How a fetch waits for a resample in flight. A resample takes
// microseconds, which resampleYields yields cover at a fraction of what
// parking the goroutine costs (waiting on a mutex took a quarter off
// the benchmark's papi_read ops_per_s). A slow or hung metric source
// must not turn every waiting fetch into a busy loop (yielding without
// bound starved the race-mode cluster chaos test on two cores), so
// after that the fetch sleeps resampleNap between looks.
const (
	resampleYields = 256
	resampleNap    = 50 * time.Microsecond
)

// current returns a snapshot that is fresh (younger than the sampling
// interval) and consistent with the current metric table, resampling if
// needed. Only one goroutine resamples at a time; a fetch that finds a
// resample in flight waits for it rather than serve the snapshot it
// replaces, which would be older than the interval the daemon promises
// — and two overlapping fetches of one daemon (a hedged edge) would
// then answer with different instants.
func (d *Daemon) current() *snapshot {
	for waits := 0; ; waits++ {
		now := d.clock.Now()
		tab := d.table.Load()
		s := d.snap.Load()
		if s != nil && s.table == tab && now.Sub(s.at) < d.interval {
			return s
		}
		if !d.sampling.CompareAndSwap(false, true) {
			if waits < resampleYields {
				runtime.Gosched()
			} else {
				time.Sleep(resampleNap)
			}
			continue
		}
		// Re-check under the gate: another goroutine may have published
		// a fresh snapshot between our load and the CAS.
		tab = d.table.Load()
		s = d.snap.Load()
		now = d.clock.Now()
		if s == nil || s.table != tab || now.Sub(s.at) >= d.interval {
			s = d.resample(tab, now)
			d.snap.Store(s)
		}
		d.sampling.Store(false)
		return s
	}
}

// resample reads every metric in the table as of now and builds a new
// immutable snapshot. It runs on exactly one goroutine at a time (the
// single-flight winner), so metric Read callbacks are never invoked
// concurrently by the same daemon.
func (d *Daemon) resample(tab *metricTable, now simtime.Time) *snapshot {
	vals := make([]FetchValue, len(tab.metrics))
	for i, m := range tab.metrics {
		v, err := m.Read(now)
		if err != nil {
			vals[i] = FetchValue{PMID: uint32(i + 1), Status: StatusValueError}
			continue
		}
		vals[i] = FetchValue{PMID: uint32(i + 1), Status: StatusOK, Value: v}
	}
	return &snapshot{table: tab, at: now, values: vals}
}

// Fetch returns the daemon's current view of the requested PMIDs. It is
// exported for in-process use and exercised by the network handler.
func (d *Daemon) Fetch(pmids []uint32) FetchResult {
	return d.FetchInto(pmids, nil)
}

// FetchInto is Fetch appending the values to vals (pass a previous
// result's Values[:0] to serve from a reused buffer without allocating).
// It takes no locks: values, PMIDs and timestamp all come from one
// published snapshot, so a result is never torn across samples.
func (d *Daemon) FetchInto(pmids []uint32, vals []FetchValue) FetchResult {
	return d.current().project(pmids, vals)
}

// FetchBatch answers one result per PMID set, all served from a single
// snapshot — the multi-EventSet fetch: every set sees the same
// timestamp and a mutually consistent view.
func (d *Daemon) FetchBatch(sets [][]uint32) []FetchResult {
	return d.FetchBatchInto(sets, nil)
}

// FetchBatchInto is FetchBatch decoding into results, reusing its outer
// array and each element's Values backing array. Like FetchInto it
// takes no locks.
func (d *Daemon) FetchBatchInto(sets [][]uint32, results []FetchResult) []FetchResult {
	s := d.current()
	for i, pmids := range sets {
		var vals []FetchValue
		if i < cap(results) {
			vals = results[:i+1][i].Values[:0]
		}
		results = append(results[:i], s.project(pmids, vals))
	}
	return results[:len(sets)]
}

// project appends the snapshot's values of pmids to vals, answering an
// unknown PMID with StatusNoSuchPMID.
func (s *snapshot) project(pmids []uint32, vals []FetchValue) FetchResult {
	vals = slices.Grow(vals, len(pmids))
	for _, id := range pmids {
		if id == 0 || int(id) > len(s.values) {
			vals = append(vals, FetchValue{PMID: id, Status: StatusNoSuchPMID})
			continue
		}
		vals = append(vals, s.values[id-1])
	}
	return FetchResult{Timestamp: int64(s.at), Values: vals}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves clients in the
// background until Close. It returns the bound address.
func (d *Daemon) Start(addr string) (string, error) { return d.srv.Start(addr) }

// StartOn serves clients on an existing listener until Close. It is the
// injection point for wrapped listeners (fault injection, custom
// transports). It returns the listener's address.
func (d *Daemon) StartOn(ln net.Listener) string { return d.srv.StartOn(ln) }

// Close stops the listener, disconnects clients, and waits for
// connection handlers to finish. It is idempotent.
func (d *Daemon) Close() error { return d.srv.Close() }

// daemonHandler is the daemon as a Handler. It holds no state: values are
// projected into the server's per-request results, so steady-state
// fetch serving does not allocate.
type daemonHandler struct{ d *Daemon }

func (h daemonHandler) Names() ([]NameEntry, error) { return h.d.table.Load().names, nil }

func (h daemonHandler) Fetch(_ uint32, sets [][]uint32, results []FetchResult) ([]FetchResult, error) {
	return h.d.FetchBatchInto(sets, results[:0]), nil
}
