// Package pmproxy implements the pmproxy analogue: a daemon that speaks
// the PCP PDU protocol on both sides and multiplexes many unprivileged
// clients onto a small pool of upstream PMCD connections.
//
// The fan-out win comes from coalescing: the upstream daemon only
// refreshes its counter view once per sampling interval, so identical
// fetch requests landing within one interval are served from a single
// upstream round trip — M clients cost O(1) upstream fetches per
// interval instead of M. The serving path is built to scale with cores:
//
//   - The coalescing cache is sharded by request hash, so distinct
//     pmid-sets never contend on one lock.
//   - A cache hit is lock-free: each entry publishes its current answer
//     through an atomic pointer, so the common case (every dashboard
//     fetching the same metrics within one interval) is a pointer load,
//     not a mutex acquisition.
//   - Only refreshes serialize, per entry (single-flight): one goroutine
//     performs the upstream round trip while identical concurrent
//     requests queue behind it and then hit the freshened cache.
//   - Cache-miss round trips for different entries pipeline through a
//     small upstream connection pool instead of queueing on a single
//     connection.
//
// The name table is cached behind an atomic pointer, upstream round
// trips carry a wall-clock deadline with bounded retry/backoff, and when
// the upstream is down the proxy degrades gracefully by serving the last
// good answer with its original (stale) timestamp rather than failing
// the client.
package pmproxy

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/simtime"
	"papimc/internal/xrand"
)

// ErrUpstreamDown is returned when the upstream is unreachable after
// retries and no cached answer is available (or stale serving is off).
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
	// DisableStale makes the proxy fail requests when the upstream is
	// down instead of serving the last good (timestamped) answer.
	DisableStale bool
	// PoolSize caps the number of concurrent upstream connections.
	// Cache misses for distinct pmid-sets pipeline across the pool
	// instead of queueing on one connection. Zero means 4.
	PoolSize int
	// Admission configures the admission/scheduling layer in front of
	// the fetch path: a factory-registered policy, per-tenant quotas,
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

// Stats is a snapshot of the proxy's counters. A batch fetch of n sets
// counts as n ClientFetches, and each of its sets as one CoalescedHit,
// UpstreamFetch or StaleServe — so the existing ratios keep their
// meaning — while UpstreamBatchRTs separately counts the actual
// upstream round trips batches were grouped into.
type Stats struct {
	ClientFetches        int64 // fetch (or batch-set) requests received from clients
	UpstreamFetches      int64 // fetch sets that reached the daemon
	UpstreamBatchRTs     int64 // grouped upstream round trips serving batch misses
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

// numShards splits the coalescing cache so distinct pmid-sets land on
// distinct locks. 16 shards keeps the worst-case map mutex hold times
// negligible at far more cores than the daemon tier ever sees, at the
// cost of a few hundred bytes.
const numShards = 16

// maxShardEntries bounds each shard; on overflow the shard is reset
// (distinct pmid-sets are rare in practice).
const maxShardEntries = 64

// shard is one slice of the coalescing cache: a mutex-guarded map from
// encoded fetch request to its entry. The lock covers only map access —
// never upstream round trips.
type shard struct {
	mu sync.Mutex
	m  map[string]*entry
}

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

	shards [numShards]shard

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
		sleep: time.Sleep,
		boRng: xrand.New(cfg.Seed),
	}
	p.srv = pcp.NewServer(1, func() pcp.Handler { return proxyHandler{p} })
	for i := range p.shards {
		p.shards[i].m = make(map[string]*entry)
	}
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

// discard drops a connection after a failure; a timed-out round trip
// leaves the stream mid-PDU, so the connection cannot be reused.
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

// shardFor hashes an encoded fetch request (FNV-1a) onto a shard.
func (p *Proxy) shardFor(key []byte) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	// Xor-fold before reducing: FNV-1a's low bits alone cluster when keys
	// differ in only a few bytes, and the shard index is a small power of
	// two.
	h ^= h >> 32
	h ^= h >> 16
	return &p.shards[h%numShards]
}

// lookup finds or creates the cache entry for an encoded request.
func (p *Proxy) lookup(key []byte) *entry {
	sh := p.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	if !ok {
		if len(sh.m) >= maxShardEntries {
			sh.m = make(map[string]*entry)
		}
		e = &entry{}
		sh.m[string(key)] = e
	}
	sh.mu.Unlock()
	return e
}

// Fetch serves one client fetch through the coalescing cache as the
// default tenant. Exported for in-process use; the network handler goes
// through FetchTenant. The returned result is shared with other readers
// of the same cache entry and must be treated as read-only.
func (p *Proxy) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	return p.FetchTenant(DefaultTenant, pmids)
}

// shedOrStale resolves a typed admission rejection for one fetch set:
// a degradable tenant with a cached answer is served stale (preferring
// degraded service over rejection), anything else is a counted shed
// failing with the typed error.
func (p *Proxy) shedOrStale(tenant uint32, tc *tenantCounter, e *entry, aerr error) (pcp.FetchResult, error) {
	if c := e.cur.Load(); c != nil && p.degradable(tenant) && !p.cfg.DisableStale {
		p.staleServes.Add(1)
		tc.staleServed.Add(1)
		return c.res, nil
	}
	p.shed.Add(1)
	tc.shed.Add(1)
	return pcp.FetchResult{}, aerr
}

// FetchTenant is Fetch accounted to (and admission-controlled as) the
// given tenant.
func (p *Proxy) FetchTenant(tenant uint32, pmids []uint32) (pcp.FetchResult, error) {
	p.clientFetches.Add(1)
	tc := p.tenantCounter(tenant)
	tc.issued.Add(1)
	bp := keyBufPool.Get().(*[]byte)
	key := pcp.AppendFetchReq((*bp)[:0], pmids)
	e := p.lookup(key)
	*bp = key
	keyBufPool.Put(bp)

	// Lock-free fast path: a published answer younger than the sampling
	// interval is the coalesced hit. Cache hits are never gated: quotas
	// meter upstream work, and a hit costs none.
	if c := e.cur.Load(); c != nil && p.fresh(c.fetchedAt, p.now()) {
		p.coalescedHits.Add(1)
		tc.admitted.Add(1)
		return c.res, nil
	}

	// Refresh path: single-flight per entry. Concurrent identical
	// requests queue here while one goroutine does the round trip, then
	// re-check and count as coalesced hits.
	e.mu.Lock()
	defer e.mu.Unlock()
	if c := e.cur.Load(); c != nil && p.fresh(c.fetchedAt, p.now()) {
		p.coalescedHits.Add(1)
		tc.admitted.Add(1)
		return c.res, nil
	}
	// Admission gate: only work that would cost an upstream round trip
	// is policed.
	if p.admit != nil {
		if aerr := p.admit.Admit(p.admitReq(tenant, 1)); aerr != nil {
			return p.shedOrStale(tenant, tc, e, aerr)
		}
	}
	var res pcp.FetchResult
	err := p.withUpstreamTenant(tenant, func(c *pcp.Client) error {
		var ferr error
		res, ferr = c.Fetch(pmids)
		return ferr
	})
	if err != nil {
		if IsShed(err) {
			// Fair-queue overflow or shutdown: same degrade-or-shed
			// resolution as a policy rejection.
			return p.shedOrStale(tenant, tc, e, err)
		}
		if c := e.cur.Load(); c != nil && !p.cfg.DisableStale {
			// Graceful degradation: the answer is stale but carries its
			// original daemon timestamp, so the client can tell.
			p.staleServes.Add(1)
			tc.staleServed.Add(1)
			return c.res, nil
		}
		// Admitted past the gate; the upstream failed with nothing to
		// degrade to. The failure stays visible in UpstreamErrors.
		tc.admitted.Add(1)
		return pcp.FetchResult{}, err
	}
	p.upstreamFetches.Add(1)
	tc.admitted.Add(1)
	e.cur.Store(&cached{res: res, fetchedAt: p.now()})
	return res, nil
}

// FetchBatch serves a multi-set fetch through the coalescing cache:
// sets that hit are answered from their entries, and all the misses are
// grouped into ONE upstream batch round trip (the whole point of the
// batch PDU — a cold multi-component EventSet costs one upstream RT,
// not one per component). Results alias cache entries and must be
// treated as read-only.
func (p *Proxy) FetchBatch(sets [][]uint32) ([]pcp.FetchResult, error) {
	return p.FetchBatchTenant(DefaultTenant, sets)
}

// missGroup is one distinct stale pmid-set of a batch: its cache entry
// and every batch index asking for it.
type missGroup struct {
	key     string
	e       *entry
	pmids   []uint32
	indices []int
}

// FetchBatchTenant is FetchBatch accounted to (and admission-controlled
// as) the given tenant. Each set counts as one issued request; a shed
// batch counts every miss set as shed (hit sets stay admitted), so the
// per-tenant conservation law holds set-exactly.
func (p *Proxy) FetchBatchTenant(tenant uint32, sets [][]uint32) ([]pcp.FetchResult, error) {
	p.clientFetches.Add(int64(len(sets)))
	tc := p.tenantCounter(tenant)
	tc.issued.Add(int64(len(sets)))
	results := make([]pcp.FetchResult, len(sets))
	var (
		misses []*missGroup
		byKey  map[string]*missGroup
	)
	bp := keyBufPool.Get().(*[]byte)
	key := (*bp)[:0]
	for i, pmids := range sets {
		key = pcp.AppendFetchReq(key[:0], pmids)
		e := p.lookup(key)
		if c := e.cur.Load(); c != nil && p.fresh(c.fetchedAt, p.now()) {
			p.coalescedHits.Add(1)
			tc.admitted.Add(1)
			results[i] = c.res
			continue
		}
		if byKey == nil {
			byKey = make(map[string]*missGroup)
		}
		g := byKey[string(key)]
		if g == nil {
			g = &missGroup{key: string(key), e: e, pmids: pmids}
			byKey[g.key] = g
			misses = append(misses, g)
		}
		g.indices = append(g.indices, i)
	}
	*bp = key
	keyBufPool.Put(bp)
	if len(misses) == 0 {
		return results, nil
	}

	// Single-flight across multiple entries: lock the distinct miss
	// entries in sorted key order — the one total order every batch
	// agrees on, so two overlapping batches can never deadlock (the
	// single-set path never holds more than one entry lock, so it
	// cannot complete a cycle either).
	sort.Slice(misses, func(a, b int) bool { return misses[a].key < misses[b].key })
	held := misses[:0]
	for _, g := range misses {
		g.e.mu.Lock()
		if c := g.e.cur.Load(); c != nil && p.fresh(c.fetchedAt, p.now()) {
			g.e.mu.Unlock()
			p.coalescedHits.Add(int64(len(g.indices)))
			tc.admitted.Add(int64(len(g.indices)))
			for _, i := range g.indices {
				results[i] = c.res
			}
			continue
		}
		held = append(held, g)
	}
	if len(held) == 0 {
		return results, nil
	}
	defer func() {
		for j := len(held) - 1; j >= 0; j-- {
			held[j].e.mu.Unlock()
		}
	}()
	heldSets := 0
	for _, g := range held {
		heldSets += len(g.indices)
	}

	// Admission gate: the batch's upstream cost is its distinct miss
	// groups (one grouped round trip of len(held) sets).
	if p.admit != nil {
		if aerr := p.admit.Admit(p.admitReq(tenant, len(held))); aerr != nil {
			return p.shedOrStaleBatch(tenant, tc, held, heldSets, results, aerr)
		}
	}
	missSets := make([][]uint32, len(held))
	for j, g := range held {
		missSets[j] = g.pmids
	}
	var out []pcp.FetchResult
	err := p.withUpstreamTenant(tenant, func(c *pcp.Client) error {
		var ferr error
		out, ferr = c.FetchBatch(missSets)
		return ferr
	})
	if err != nil {
		if IsShed(err) {
			return p.shedOrStaleBatch(tenant, tc, held, heldSets, results, err)
		}
		// Degrade to stale only when every miss group has a cached
		// answer (all-or-nothing, so the accounting matches what the
		// client actually received).
		stale := !p.cfg.DisableStale
		for _, g := range held {
			if g.e.cur.Load() == nil {
				stale = false
				break
			}
		}
		if !stale {
			tc.admitted.Add(int64(heldSets))
			return nil, err
		}
		for _, g := range held {
			c := g.e.cur.Load()
			p.staleServes.Add(int64(len(g.indices)))
			tc.staleServed.Add(int64(len(g.indices)))
			for _, i := range g.indices {
				results[i] = c.res
			}
		}
		return results, nil
	}
	p.upstreamFetches.Add(int64(len(held)))
	p.upstreamBatchRTs.Add(1)
	tc.admitted.Add(int64(heldSets))
	now := p.now()
	for j, g := range held {
		g.e.cur.Store(&cached{res: out[j], fetchedAt: now})
		for _, i := range g.indices {
			results[i] = out[j]
		}
	}
	return results, nil
}

// shedOrStaleBatch resolves a typed admission rejection for a batch's
// miss groups: when the tenant is degradable and every miss group has a
// cached answer, the whole batch degrades to stale; otherwise every
// miss set counts shed and the batch fails with the typed error.
func (p *Proxy) shedOrStaleBatch(tenant uint32, tc *tenantCounter, held []*missGroup, heldSets int, results []pcp.FetchResult, aerr error) ([]pcp.FetchResult, error) {
	if p.degradable(tenant) && !p.cfg.DisableStale {
		stale := true
		for _, g := range held {
			if g.e.cur.Load() == nil {
				stale = false
				break
			}
		}
		if stale {
			for _, g := range held {
				c := g.e.cur.Load()
				p.staleServes.Add(int64(len(g.indices)))
				tc.staleServed.Add(int64(len(g.indices)))
				for _, i := range g.indices {
					results[i] = c.res
				}
			}
			return results, nil
		}
	}
	p.shed.Add(int64(heldSets))
	tc.shed.Add(int64(heldSets))
	return nil, aerr
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
	err := p.withUpstream(func(c *pcp.Client) error {
		var nerr error
		entries, nerr = c.Names()
		return nerr
	})
	if err != nil {
		if t := p.names.Load(); t != nil && !p.cfg.DisableStale {
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

func (h proxyHandler) Fetch(tenant uint32, pmids []uint32) (pcp.FetchResult, error) {
	return h.p.FetchTenant(tenant, pmids)
}

// FetchAll is not served by the proxy: the request is answered like any
// PDU type it does not know.
func (proxyHandler) FetchAll(uint32) (pcp.FetchResult, error) {
	return pcp.FetchResult{}, fmt.Errorf("unknown PDU type %d", pcp.PDUFetchAllReq)
}

func (h proxyHandler) FetchBatch(tenant uint32, sets [][]uint32) ([]pcp.FetchResult, error) {
	return h.p.FetchBatchTenant(tenant, sets)
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
