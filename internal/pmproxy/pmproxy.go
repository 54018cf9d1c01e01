// Package pmproxy implements the pmproxy analogue: a daemon that speaks
// the PCP PDU protocol on both sides and multiplexes many unprivileged
// clients onto a small pool of upstream PMCD connections.
//
// The fan-out win comes from coalescing: the upstream daemon only
// refreshes its counter view once per sampling interval, so identical
// fetch requests landing within one interval are served from a single
// upstream round trip — M clients cost O(1) upstream fetches per
// interval instead of M. Every fetch takes one path: a single fetch is
// the one-set batch. That path is built to scale with cores:
//
//   - The coalescing cache is one map behind a mutex held only for the
//     lookup, never across an upstream round trip.
//   - A cache hit takes no entry lock: each entry publishes its current
//     answer through an atomic pointer, so the common case (every
//     dashboard fetching the same metrics within one interval) is a
//     map lookup and a pointer load.
//   - Only refreshes serialize, per entry (single-flight): one goroutine
//     performs the upstream round trip while identical concurrent
//     requests queue behind it and then hit the freshened cache.
//   - A request's misses share one upstream round trip, and round trips
//     of different requests pipeline through a small upstream
//     connection pool instead of queueing on a single connection.
//
// The name table is cached behind an atomic pointer, upstream round
// trips carry a wall-clock deadline with bounded retry/backoff, and when
// the upstream is down the proxy degrades gracefully by serving the last
// good answer with its original (stale) timestamp rather than failing
// the client.
package pmproxy

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/simtime"
	"papimc/internal/xrand"
)

// ErrUpstreamDown is returned when the upstream is unreachable after
// retries and no cached answer is available.
var ErrUpstreamDown = errors.New("pmproxy: upstream unavailable")

// Config tunes a Proxy.
type Config struct {
	// Upstream is the PMCD daemon address. Ignored when Dial is set.
	Upstream string
	// Dial overrides how upstream connections are (re)established.
	Dial func() (*pcp.Client, error)
	// Clock, when set, provides the coalescing timebase (the simulated
	// deployments share the daemon's clock). When nil, wall time is used
	// with Interval read as nanoseconds.
	Clock *simtime.Clock
	// Interval is the upstream daemon's sampling interval: answers
	// younger than this are served from cache without an upstream round
	// trip. Zero disables interval coalescing (single-flight still
	// applies).
	Interval simtime.Duration
	// Timeout bounds each upstream round trip; on expiry the connection
	// is dropped and redialled. Zero means no deadline.
	Timeout time.Duration
	// MaxRetries is how many times a failed upstream operation is
	// retried (with capped, jittered doubling backoff) before giving up.
	MaxRetries int
	// Backoff is the initial delay between retries.
	Backoff time.Duration
	// BackoffMax caps the doubling backoff between retries. Zero means
	// 1s. Without a cap, long retry sequences (accumulated across
	// repeated outages) double into multi-minute sleeps.
	BackoffMax time.Duration
	// Seed seeds the backoff jitter RNG, keeping retry timing
	// deterministic under the chaos suite. Zero is a valid seed.
	Seed uint64
	// PoolSize caps the number of concurrent upstream connections.
	// Cache misses for distinct pmid-sets pipeline across the pool
	// instead of queueing on one connection. Zero means 4.
	PoolSize int
	// Admission configures the admission/scheduling layer in front of
	// the fetch path: a named policy (see PolicyNames), per-tenant quotas,
	// and weighted fair queueing. The zero value disables admission
	// entirely (every request proceeds, no queue) — the pre-QoS fast
	// path. An unknown policy name panics in New; validate with
	// NewPolicy first when the name comes from user input.
	Admission AdmissionConfig
	// Breaker configures the per-upstream circuit breaker. A zero
	// Threshold disables it (the default), keeping fault accounting
	// exactly as before.
	Breaker BreakerConfig
}

// defaultPoolSize is the upstream connection cap when Config.PoolSize is
// zero: enough to pipeline the handful of distinct pmid-sets live
// dashboards ask for, small enough not to crowd the daemon.
const defaultPoolSize = 4

// Stats is a snapshot of the proxy's counters, the same for single and
// batch fetches. A fetch of n sets (a single fetch is one set) counts n
// ClientFetches; a set answered from cache counts one CoalescedHit or
// StaleServe, a shed set one Shed, and each distinct missing set one
// UpstreamFetch. UpstreamBatchRTs counts the upstream round trips that
// carried two or more sets (a lone miss set goes as a plain Fetch).
type Stats struct {
	ClientFetches        int64 // fetch (or batch-set) requests received from clients
	UpstreamFetches      int64 // fetch sets that reached the daemon
	UpstreamBatchRTs     int64 // upstream round trips carrying two or more miss sets
	CoalescedHits        int64 // client fetches answered from the interval cache
	StaleServes          int64 // fetch answers served from cache because upstream was down
	StaleNameServes      int64 // name tables served from cache because upstream was down
	UpstreamErrors       int64 // failed upstream operations (before retry)
	Retries              int64 // failed upstream operations that were retried
	Exhausted            int64 // upstream operations that failed after all retries
	Redials              int64 // upstream connections established
	Shed                 int64 // fetch sets rejected by admission (typed ErrAdmissionRejected)
	BreakerOpens         int64 // circuit-breaker trips (closed/half-open → open)
	BreakerProbes        int64 // half-open probes admitted
	BreakerShortCircuits int64 // requests failed fast by an open breaker (no dial, no retries)
}

// TenantStats is one tenant's request accounting. Every issued fetch
// set lands in exactly one of Admitted, Shed or StaleServed:
//
//	Issued == Admitted + Shed + StaleServed
//
// Admitted counts sets the admission layer let through to normal
// serving (cache hits and upstream round trips — including round trips
// that then failed upstream without a stale fallback, which stay
// visible in the aggregate error counters). Shed counts typed
// admission rejections; StaleServed counts sets answered from cache
// because the upstream was down or the set was shed but degradable.
type TenantStats struct {
	Tenant      uint32
	Issued      int64
	Admitted    int64
	Shed        int64
	StaleServed int64
}

// CoalescingRatio is client fetches per upstream fetch — the fan-out
// win. With no traffic it reports 1.
func (s Stats) CoalescingRatio() float64 {
	if s.UpstreamFetches == 0 {
		return 1
	}
	return float64(s.ClientFetches) / float64(s.UpstreamFetches)
}

// cached is one immutable published answer. Readers reach it through an
// atomic pointer and never lock; a new answer is a new cached value.
type cached struct {
	res       pcp.FetchResult
	fetchedAt int64 // proxy timebase, not the daemon timestamp
}

// entry is one coalescing-cache slot. The current answer is published
// through cur (lock-free hits); mu is only the single-flight gate for
// refreshes: the holder performs the upstream round trip while identical
// requests queue behind it and then hit the freshened cache.
type entry struct {
	cur atomic.Pointer[cached]
	mu  sync.Mutex
}

// maxEntries bounds the coalescing cache; on overflow the map is reset
// (distinct pmid-sets are rare in practice).
const maxEntries = 1024

// nameTable is the cached upstream name table, published atomically.
type nameTable struct {
	entries []pcp.NameEntry
	at      int64
}

// Proxy is the daemon. Create with New, then Start.
type Proxy struct {
	cfg Config

	srv *pcp.Server // the client-facing side: in-order serving (depth 1)

	// Upstream connection pool: sem bounds concurrent upstream round
	// trips; idle connections are kept on the free list for reuse.
	sem    chan struct{}
	freeMu sync.Mutex
	free   []*pcp.Client

	names  atomic.Pointer[nameTable]
	nameMu sync.Mutex // single-flight gate for name-table refresh

	// cache maps an encoded fetch request to its entry. cacheMu covers
	// only map access — never upstream round trips.
	cacheMu sync.Mutex
	cache   map[string]*entry

	// Admission layer: policy (nil = disabled), weighted fair queue
	// gating upstream work (nil = disabled), per-upstream breaker
	// (nil = disabled), and per-tenant counters.
	admit   Policy
	queue   *wfq
	brk     *breaker
	tenants sync.Map // uint32 -> *tenantCounter

	clientFetches    atomic.Int64
	upstreamFetches  atomic.Int64
	upstreamBatchRTs atomic.Int64
	coalescedHits    atomic.Int64
	staleServes      atomic.Int64
	staleNameServes  atomic.Int64
	upstreamErrors   atomic.Int64
	retries          atomic.Int64
	exhausted        atomic.Int64
	redials          atomic.Int64
	shed             atomic.Int64
	breakerShorts    atomic.Int64

	// sleep is the retry-backoff sleeper, a hook so the regression test
	// can observe planned sleeps without wall-clock waits.
	sleep func(time.Duration)

	// boMu guards boRng: jitter draws are rare (one per retry), so a
	// mutex is fine.
	boMu  sync.Mutex
	boRng *xrand.Source
}

// New builds a proxy; it does not touch the network until Start (or the
// first request forces an upstream dial).
func New(cfg Config) *Proxy {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = defaultPoolSize
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	p := &Proxy{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.PoolSize),
		cache: make(map[string]*entry),
		sleep: time.Sleep,
		boRng: xrand.New(cfg.Seed),
	}
	p.srv = pcp.NewServer(1, proxyHandler{p})
	if cfg.Admission.Policy != "" {
		pol, err := NewPolicy(cfg.Admission.Policy, cfg.Admission)
		if err != nil {
			panic(err) // construction-time wiring error; see Config.Admission
		}
		p.admit = pol
		slots := cfg.Admission.MaxConcurrent
		if slots <= 0 {
			slots = cfg.PoolSize
		}
		p.queue = newWFQ(slots, cfg.Admission.QueueDepth, func(id uint32) float64 {
			return cfg.Admission.weight(id)
		})
	}
	if cfg.Breaker.Threshold > 0 {
		p.brk = newBreaker(cfg.Breaker, p.jitter)
	}
	return p
}

// tenantCounter returns (creating on first use) the counters for a
// tenant.
func (p *Proxy) tenantCounter(id uint32) *tenantCounter {
	if v, ok := p.tenants.Load(id); ok {
		return v.(*tenantCounter)
	}
	v, _ := p.tenants.LoadOrStore(id, &tenantCounter{})
	return v.(*tenantCounter)
}

// tenantCounter holds one tenant's atomic request accounting.
type tenantCounter struct {
	issued      atomic.Int64
	admitted    atomic.Int64
	shed        atomic.Int64
	staleServed atomic.Int64
}

// TenantStatsFor snapshots one tenant's counters.
func (p *Proxy) TenantStatsFor(id uint32) TenantStats {
	v, ok := p.tenants.Load(id)
	if !ok {
		return TenantStats{Tenant: id}
	}
	tc := v.(*tenantCounter)
	return TenantStats{
		Tenant:      id,
		Issued:      tc.issued.Load(),
		Admitted:    tc.admitted.Load(),
		Shed:        tc.shed.Load(),
		StaleServed: tc.staleServed.Load(),
	}
}

// TenantStatsAll snapshots every tenant seen so far, sorted by tenant
// ID.
func (p *Proxy) TenantStatsAll() []TenantStats {
	var out []TenantStats
	p.tenants.Range(func(k, _ any) bool {
		out = append(out, p.TenantStatsFor(k.(uint32)))
		return true
	})
	sort.Slice(out, func(a, b int) bool { return out[a].Tenant < out[b].Tenant })
	return out
}

// admitReq assembles one admission decision's input.
func (p *Proxy) admitReq(tenant uint32, cost int) AdmitRequest {
	return AdmitRequest{
		Tenant:   tenant,
		Cost:     cost,
		Priority: p.cfg.Admission.priority(tenant),
		Now:      p.now(),
	}
}

// degradable reports whether the tenant's queries tolerate staleness
// when shed.
func (p *Proxy) degradable(tenant uint32) bool {
	return p.cfg.Admission.tenant(tenant).Degradable
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	s := Stats{
		ClientFetches:        p.clientFetches.Load(),
		UpstreamFetches:      p.upstreamFetches.Load(),
		UpstreamBatchRTs:     p.upstreamBatchRTs.Load(),
		CoalescedHits:        p.coalescedHits.Load(),
		StaleServes:          p.staleServes.Load(),
		StaleNameServes:      p.staleNameServes.Load(),
		UpstreamErrors:       p.upstreamErrors.Load(),
		Retries:              p.retries.Load(),
		Exhausted:            p.exhausted.Load(),
		Redials:              p.redials.Load(),
		Shed:                 p.shed.Load(),
		BreakerShortCircuits: p.breakerShorts.Load(),
	}
	if p.brk != nil {
		s.BreakerOpens, s.BreakerProbes = p.brk.snapshot()
	}
	return s
}

// now reads the proxy's coalescing timebase.
func (p *Proxy) now() int64 {
	if p.cfg.Clock != nil {
		return int64(p.cfg.Clock.Now())
	}
	return time.Now().UnixNano()
}

// fresh reports whether a cache write at t0 is still within the
// upstream's sampling interval at time t1.
func (p *Proxy) fresh(t0, t1 int64) bool {
	return p.cfg.Interval > 0 && t1-t0 < int64(p.cfg.Interval)
}

// acquire takes a pool slot and returns a live upstream connection,
// reusing an idle one or dialling. On error the slot is released.
func (p *Proxy) acquire() (*pcp.Client, error) {
	p.sem <- struct{}{}
	p.freeMu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.freeMu.Unlock()
		return c, nil
	}
	p.freeMu.Unlock()
	dial := p.cfg.Dial
	if dial == nil {
		dial = func() (*pcp.Client, error) { return pcp.Dial(p.cfg.Upstream) }
	}
	c, err := dial()
	if err != nil {
		<-p.sem
		return nil, err
	}
	c.SetTimeout(p.cfg.Timeout)
	p.redials.Add(1)
	return c, nil
}

// release returns a healthy connection to the pool.
func (p *Proxy) release(c *pcp.Client) {
	p.freeMu.Lock()
	p.free = append(p.free, c)
	p.freeMu.Unlock()
	<-p.sem
}

// discard drops a connection after a failure. A timed-out round trip
// leaves the stream mid-PDU only at Version1 — a tagged connection
// abandons the tag and drops its late reply — but a reset or protocol
// error leaves any connection unusable, and the retry redials.
func (p *Proxy) discard(c *pcp.Client) {
	c.Close()
	<-p.sem
}

// withUpstream runs op against a pooled upstream connection with bounded
// retry and capped, jittered doubling backoff, redialling after each
// failure. Every failed attempt is counted in UpstreamErrors and then in
// exactly one of Retries (another attempt follows) or Exhausted (gave
// up), so UpstreamErrors == Retries + Exhausted holds at all times.
//
// With a breaker configured, an open circuit fails the operation before
// any dial or retry (ErrCircuitOpen, counted in BreakerShortCircuits
// and NOT in the attempt counters — a short-circuited request never
// reached the upstream), and every real attempt's outcome feeds the
// breaker's failure window.
func (p *Proxy) withUpstream(op func(*pcp.Client) error) error {
	if p.brk != nil {
		if err := p.brk.allow(p.now()); err != nil {
			p.breakerShorts.Add(1)
			return err
		}
	}
	var lastErr error
	backoff := p.cfg.Backoff
	for attempt := 0; ; attempt++ {
		c, err := p.acquire()
		if err == nil {
			if err = op(c); err == nil {
				p.release(c)
				if p.brk != nil {
					p.brk.onSuccess()
				}
				return nil
			}
			p.discard(c)
		}
		lastErr = err
		p.upstreamErrors.Add(1)
		if p.brk != nil {
			p.brk.onFailure(p.now())
		}
		if attempt >= p.cfg.MaxRetries {
			p.exhausted.Add(1)
			return fmt.Errorf("%w: %v", ErrUpstreamDown, lastErr)
		}
		p.retries.Add(1)
		if backoff > 0 {
			p.sleep(p.jitter(backoff))
			if backoff > p.cfg.BackoffMax/2 {
				backoff = p.cfg.BackoffMax
			} else {
				backoff *= 2
			}
		}
	}
}

// withUpstreamTenant is withUpstream behind the weighted fair queue:
// the tenant waits its fair-share turn for a service slot before any
// upstream work starts. Only upstream operations queue — cache hits
// never reach here.
func (p *Proxy) withUpstreamTenant(tenant uint32, op func(*pcp.Client) error) error {
	if p.queue != nil {
		if err := p.queue.acquire(tenant); err != nil {
			return err
		}
		defer p.queue.release()
	}
	return p.withUpstream(op)
}

// jitter spreads a backoff uniformly over [d/2, d], drawn from the
// seeded RNG so retry timing is deterministic in simulated runs while
// still decorrelating retry storms.
func (p *Proxy) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	p.boMu.Lock()
	j := time.Duration(p.boRng.Int63n(int64(d/2) + 1))
	p.boMu.Unlock()
	return d/2 + j
}

// keyBufPool holds scratch buffers for encoding cache keys: the encoded
// request is looked up via the map[string(bytes)] fast path, so the
// common hit case allocates neither the buffer nor the key string.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// lookup finds or creates the cache entry for an encoded request.
func (p *Proxy) lookup(key []byte) *entry {
	p.cacheMu.Lock()
	e, ok := p.cache[string(key)]
	if !ok {
		if len(p.cache) >= maxEntries {
			p.cache = make(map[string]*entry)
		}
		e = &entry{}
		p.cache[string(key)] = e
	}
	p.cacheMu.Unlock()
	return e
}

// Fetch serves one client fetch through the coalescing cache as the
// default tenant. Exported for in-process use; the network handler calls
// serve directly. The returned result is shared with other readers
// of the same cache entry and must be treated as read-only.
func (p *Proxy) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	return p.FetchTenant(DefaultTenant, pmids)
}

// FetchTenant is Fetch accounted to (and admission-controlled as) the
// given tenant: the one-set case of FetchBatchTenant.
func (p *Proxy) FetchTenant(tenant uint32, pmids []uint32) (pcp.FetchResult, error) {
	var res [1]pcp.FetchResult
	err := p.serve(tenant, [][]uint32{pmids}, res[:])
	return res[0], err
}

// FetchBatch serves a multi-set fetch through the coalescing cache:
// hits are answered from their entries and all the misses share ONE
// upstream round trip — a cold multi-component EventSet costs one
// upstream RT, not one per component. Results alias cache entries and
// must be treated as read-only.
func (p *Proxy) FetchBatch(sets [][]uint32) ([]pcp.FetchResult, error) {
	return p.FetchBatchTenant(DefaultTenant, sets)
}

// FetchBatchTenant is FetchBatch accounted to (and admission-controlled
// as) the given tenant. Each set counts as one issued request; a shed
// batch counts every miss set as shed (hit sets stay admitted), so the
// per-tenant conservation law holds set-exactly.
func (p *Proxy) FetchBatchTenant(tenant uint32, sets [][]uint32) ([]pcp.FetchResult, error) {
	results := make([]pcp.FetchResult, len(sets))
	if err := p.serve(tenant, sets, results); err != nil {
		return nil, err
	}
	return results, nil
}

// miss is one set that missed the lock-free fast path: its index in the
// request, its cache entry, and its key's span in the request's key
// buffer. Sorted by key, a run of equal keys is one miss group sharing
// the run's first entry; that first miss records the run length n.
type miss struct {
	i, lo, hi, n int
	e            *entry
}

// serve is the proxy's one fetch path: it answers sets into results
// (same length) through the coalescing cache as the given tenant. Hits
// are answered lock-free; the distinct missing sets are refreshed
// single-flight under their entry locks, admitted at a cost of one per
// distinct set, and fetched in one upstream round trip. On error the
// unanswered results are left untouched.
func (p *Proxy) serve(tenant uint32, sets [][]uint32, results []pcp.FetchResult) error {
	p.clientFetches.Add(int64(len(sets)))
	tc := p.tenantCounter(tenant)
	tc.issued.Add(int64(len(sets)))

	// Lock-free fast path: a published answer younger than the sampling
	// interval is the coalesced hit. Cache hits are never gated: quotas
	// meter upstream work, and a hit costs none.
	var first [1]miss // a single fetch's miss list needs no allocation
	ms := first[:0]
	bp := keyBufPool.Get().(*[]byte)
	keys := (*bp)[:0]
	for i, pmids := range sets {
		lo := len(keys)
		keys = pcp.AppendFetchReq(keys, pmids)
		e := p.lookup(keys[lo:])
		if c := e.cur.Load(); c != nil && p.fresh(c.fetchedAt, p.now()) {
			p.coalescedHits.Add(1)
			tc.admitted.Add(1)
			results[i] = c.res
			keys = keys[:lo]
			continue
		}
		ms = append(ms, miss{i: i, lo: lo, hi: len(keys), e: e})
	}
	// Misses go in key order — the one lock order every request agrees
	// on, so two overlapping batches can never deadlock — and a run of
	// equal keys is one miss group, served through its first entry.
	// Single-flight: each group's entry lock is held across its refresh;
	// a request queued behind another's round trip re-checks and counts
	// as a coalesced hit.
	slices.SortStableFunc(ms, func(a, b miss) int {
		return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi])
	})
	held, groups := ms[:0], 0
	for j, k := 0, 0; j < len(ms); j = k {
		e := ms[j].e
		for k = j; k < len(ms) && bytes.Equal(keys[ms[k].lo:ms[k].hi], keys[ms[j].lo:ms[j].hi]); k++ {
			ms[k].e = e
		}
		e.mu.Lock()
		if c := e.cur.Load(); c != nil && p.fresh(c.fetchedAt, p.now()) {
			e.mu.Unlock()
			p.coalescedHits.Add(int64(k - j))
			tc.admitted.Add(int64(k - j))
			for _, m := range ms[j:k] {
				results[m.i] = c.res
			}
			continue
		}
		ms[j].n = k - j
		held = append(held, ms[j:k]...)
		groups++
	}
	*bp = keys
	keyBufPool.Put(bp)
	if groups == 0 {
		return nil
	}
	defer func() {
		for _, m := range held {
			if m.n > 0 {
				m.e.mu.Unlock()
			}
		}
	}()

	// Admission gate: only work that would cost an upstream round trip
	// is policed, and its cost is the distinct miss groups.
	if p.admit != nil {
		if err := p.admit.Admit(p.admitReq(tenant, groups)); err != nil {
			return p.degrade(tenant, tc, held, results, err)
		}
	}
	// One group goes upstream as a plain Fetch, what a lone set costs on
	// the wire; two or more share one FetchBatch round trip.
	var one [1]pcp.FetchResult // nor does its upstream answer's slot
	out := one[:]
	var missSets [][]uint32
	if groups > 1 {
		missSets = make([][]uint32, 0, groups)
		for _, m := range held {
			if m.n > 0 {
				missSets = append(missSets, sets[m.i])
			}
		}
	}
	err := p.withUpstreamTenant(tenant, func(c *pcp.Client) (err error) {
		if missSets == nil {
			out[0], err = c.Fetch(sets[held[0].i])
		} else {
			out, err = c.FetchBatch(missSets)
		}
		return err
	})
	if err != nil {
		return p.degrade(tenant, tc, held, results, err)
	}
	p.upstreamFetches.Add(int64(groups))
	if groups > 1 {
		p.upstreamBatchRTs.Add(1)
	}
	tc.admitted.Add(int64(len(held)))
	now, g := p.now(), -1
	for _, m := range held {
		if m.n > 0 {
			g++
			m.e.cur.Store(&cached{res: out[g], fetchedAt: now})
		}
		results[m.i] = out[g]
	}
	return nil
}

// degrade resolves held miss sets that get no fresh answer. A shed (err
// wraps ErrAdmissionRejected: a policy rejection or fair-queue overflow)
// degrades to stale only for a degradable tenant, an upstream failure
// for any tenant; either way only if every held group has a cached
// answer, so the accounting matches what the client received. A stale
// answer keeps its original daemon timestamp, so the client can tell.
// Otherwise the sets count shed, or admitted with the failure visible
// in UpstreamErrors, and the request fails with err.
func (p *Proxy) degrade(tenant uint32, tc *tenantCounter, held []miss, results []pcp.FetchResult, err error) error {
	shed := IsShed(err)
	stale := !shed || p.degradable(tenant)
	for _, m := range held {
		stale = stale && m.e.cur.Load() != nil
	}
	n := int64(len(held))
	switch {
	case stale:
		for _, m := range held {
			results[m.i] = m.e.cur.Load().res
		}
		p.staleServes.Add(n)
		tc.staleServed.Add(n)
		return nil
	case shed:
		p.shed.Add(n)
		tc.shed.Add(n)
	default:
		tc.admitted.Add(n)
	}
	return err
}

// Names serves the upstream name table through the proxy's cache. Reads
// of a fresh table are lock-free; refreshes are single-flight.
func (p *Proxy) Names() ([]pcp.NameEntry, error) {
	if t := p.names.Load(); t != nil && p.fresh(t.at, p.now()) {
		return t.entries, nil
	}
	p.nameMu.Lock()
	defer p.nameMu.Unlock()
	if t := p.names.Load(); t != nil && p.fresh(t.at, p.now()) {
		return t.entries, nil
	}
	var entries []pcp.NameEntry
	err := p.withUpstream(func(c *pcp.Client) (err error) {
		entries, err = c.Names()
		return err
	})
	if err != nil {
		if t := p.names.Load(); t != nil {
			p.staleNameServes.Add(1)
			return t.entries, nil
		}
		return nil, err
	}
	p.names.Store(&nameTable{entries: entries, at: p.now()})
	return entries, nil
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves clients in the
// background until Close. It returns the bound address.
func (p *Proxy) Start(addr string) (string, error) { return p.srv.Start(addr) }

// StartOn serves clients on an existing listener until Close. It is the
// injection point for wrapped listeners (fault injection, custom
// transports). It returns the listener's address.
func (p *Proxy) StartOn(ln net.Listener) string { return p.srv.StartOn(ln) }

// proxyHandler is the proxy as a pcp.Handler; it holds no connection
// state. Results alias cache entries; the server encodes them before
// the next request.
type proxyHandler struct{ p *Proxy }

func (h proxyHandler) Names() ([]pcp.NameEntry, error) { return h.p.Names() }

func (h proxyHandler) Fetch(tenant uint32, sets [][]uint32, results []pcp.FetchResult) ([]pcp.FetchResult, error) {
	results = slices.Grow(results[:0], len(sets))[:len(sets)]
	return results, h.p.serve(tenant, sets, results)
}

// Close stops the listener, disconnects clients, waits for handlers to
// finish, and drops the pooled upstream connections (last, so a handler
// finishing during shutdown cannot park one behind it). It is
// idempotent.
func (p *Proxy) Close() error {
	if p.queue != nil {
		p.queue.shutdown()
	}
	err := p.srv.Close()
	p.freeMu.Lock()
	for _, c := range p.free {
		c.Close()
	}
	p.free = nil
	p.freeMu.Unlock()
	return err
}
