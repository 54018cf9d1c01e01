// Overload chaos: the multi-tenant QoS property suite. Where chaos.go
// proves the stack survives a hostile transport, this file proves the
// proxy's admission layer keeps its promises when the offered load is
// hostile: three tenants (gold, silver, bronze) together offer twice
// the modelled upstream capacity, and the suite checks, per admission
// policy:
//
//   - Protection: under a protecting policy (token-bucket, priority)
//     the high-priority gold tenant's p99 latency stays within 2x of
//     its uncontended baseline p99, and gold is never shed or degraded.
//   - Conservation: for every tenant, exactly
//     Issued == Admitted + Shed + StaleServed, the harness's own
//     per-call classification matches the proxy's TenantStats, and the
//     aggregate Stats equal the per-tenant sums.
//   - Typed sheds: every rejected request fails with the typed
//     admission error (pmproxy.IsShed and pcp.ErrOverload) — never a
//     raw or untyped failure.
//   - Degradation: the degradable bronze tenant is served stale
//     answers instead of errors once its quota is spent.
//   - Control arm: under always-admit the same offered load drives
//     gold's p99 beyond the 2x bound — proving the harness can detect
//     the collapse the protecting policies prevent — and under
//     reject-all every request sheds and the upstream sees zero work.
//
// The upstream service is modelled, not measured: the driver is
// single-threaded under a simtime clock, and each admitted request
// passes through a FIFO queue with deterministic service time
// (overloadService, capacity 2000 req/s). Latency is
// queueing delay plus service — a pure function of the admitted
// arrival sequence, which itself derives entirely from
// (Options.Seed, trial index) via SplitMix64 substreams. The same
// seed reproduces the same report byte-for-byte at any worker count.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
	"papimc/internal/sweep"
	"papimc/internal/xrand"
)

// Overload testbed model: the upstream serves one request per
// overloadService, i.e. 2000 requests/sec. The three tenants together
// offer 2x that.
const (
	overloadService = 500 * simtime.Microsecond

	goldRate   = 800  // offered req/s, within every protecting quota
	silverRate = 1600 // offered req/s, far over quota
	bronzeRate = 1600 // offered req/s, degradable overflow

	baselineDur = 500 * simtime.Millisecond // gold alone: uncontended p99
	warmupDur   = 1 * simtime.Second        // all tenants, unmeasured
	measureDur  = 2 * simtime.Second        // all tenants, measured
)

// Overload tenant IDs. Distinct pmid sets per tenant keep their cache
// entries (and so the bronze stale path) independent.
const (
	TenantGold   uint32 = 1
	TenantSilver uint32 = 2
	TenantBronze uint32 = 3
)

// overloadStream salts the per-tenant arrival RNG substreams.
const overloadStream = 0x0B40AD

// OverloadPolicies are the admission policies the suite covers, in
// sweep order: the control arm first, then the protecting policies,
// then the drain policy.
func OverloadPolicies() []string {
	return []string{"always-admit", "token-bucket", "priority", "reject-all"}
}

// overloadAdmission is the tenant table for one policy. Quotas are
// sized against the model: gold's quota (and the priority drain)
// exceeds its offered 800/s so a protecting policy never sheds gold,
// while silver and bronze are capped far below their offered load.
// Bursts are small: a default burst (~1s of quota) would let silver
// and bronze dump hundreds of requests into the FIFO at warmup start,
// and that transient backlog — not steady-state contention — would be
// what gold's p99 measures.
func overloadAdmission(policy string) pmproxy.AdmissionConfig {
	cfg := pmproxy.AdmissionConfig{Policy: policy}
	switch policy {
	case "token-bucket":
		// Gold's bucket is deep enough that its jittered close-spaced
		// arrival runs (instantaneous rate up to 4x the mean) never
		// drain it: the protection assertion is that gold is NEVER
		// shed, so the quota must absorb the offered burstiness.
		cfg.Tenants = map[uint32]pmproxy.TenantConfig{
			TenantGold:   {Rate: 1200, Burst: 8},
			TenantSilver: {Rate: 60, Burst: 2},
			TenantBronze: {Rate: 30, Burst: 2, Degradable: true},
		}
	case "priority":
		cfg.Capacity = 1000
		cfg.Tenants = map[uint32]pmproxy.TenantConfig{
			TenantGold:   {Priority: 0},
			TenantSilver: {Priority: 1},
			TenantBronze: {Priority: 3, Degradable: true},
		}
	default:
		cfg.Tenants = map[uint32]pmproxy.TenantConfig{
			TenantBronze: {Degradable: true},
		}
	}
	return cfg
}

// OverloadOptions configures an overload sweep.
type OverloadOptions struct {
	// Seed is the base seed; trial i derives sweep.Seed(Seed, i).
	Seed uint64
	// Trials is how many independent seeded trials to run.
	Trials int
	// Policy is the admission policy under test; see OverloadPolicies.
	Policy string
	// Workers parallelizes trials (never calls within a trial).
	Workers int
	// Trial, when >= 0, runs only that single trial index — the replay
	// path for a failure line.
	Trial int
}

// TenantOutcome is one tenant's observed outcome in one trial. The
// counters are the harness's own per-call classification (cross-checked
// against the proxy's TenantStats); latency quantiles are over the
// measured phase's admitted requests in virtual nanoseconds.
type TenantOutcome struct {
	Name   string
	Tenant uint32

	Issued      int64
	Admitted    int64
	Shed        int64
	StaleServed int64

	Samples       int
	P50, P99, Max int64
}

// OverloadTrial is one trial's outcome: per-tenant accounting and
// latency, the gold baseline, the proxy stats, and any violations.
type OverloadTrial struct {
	Index  int
	Seed   uint64
	Policy string

	// BaselineP99 is gold's uncontended p99 (virtual ns), measured with
	// the other tenants silent. Zero under reject-all (nothing served).
	BaselineP99 int64

	Tenants    []TenantOutcome // gold, silver, bronze
	Proxy      pmproxy.Stats
	Violations []string
}

// OverloadReport is a full overload run's outcome.
type OverloadReport struct {
	Opts   OverloadOptions
	Trials []OverloadTrial
}

// Failed reports whether any trial violated an invariant.
func (r *OverloadReport) Failed() bool {
	for _, t := range r.Trials {
		if len(t.Violations) > 0 {
			return true
		}
	}
	return false
}

// String renders the deterministic report: byte-identical for the same
// options at any worker count.
func (r *OverloadReport) String() string {
	var b strings.Builder
	for _, t := range r.Trials {
		fmt.Fprintf(&b, "overload trial %02d policy=%s seed=%#016x baseline_p99=%dns\n",
			t.Index, t.Policy, t.Seed, t.BaselineP99)
		for _, o := range t.Tenants {
			fmt.Fprintf(&b, "  %-6s issued=%d admitted=%d shed=%d stale=%d samples=%d p50=%dns p99=%dns max=%dns",
				o.Name, o.Issued, o.Admitted, o.Shed, o.StaleServed,
				o.Samples, o.P50, o.P99, o.Max)
			if t.BaselineP99 > 0 && o.Samples > 0 {
				fmt.Fprintf(&b, " p99x=%.2f", float64(o.P99)/float64(t.BaselineP99))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  proxy[fetch=%d up=%d coal=%d stale=%d shed=%d uerr=%d]\n",
			t.Proxy.ClientFetches, t.Proxy.UpstreamFetches, t.Proxy.CoalescedHits,
			t.Proxy.StaleServes, t.Proxy.Shed, t.Proxy.UpstreamErrors)
		for _, v := range t.Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	return b.String()
}

// OverloadReproLine is the one-command replay for a failing overload
// trial: same policy, same seed substream, same verdict.
func OverloadReproLine(o OverloadOptions, trial int) string {
	return fmt.Sprintf("go run ./cmd/chaos -overload -policy %s -seed %#x -trials %d -trial %d",
		o.Policy, o.Seed, maxInt(o.Trials, trial+1), trial)
}

// RunOverload executes the overload sweep. The error is only for
// harness failures (bad policy name, listen); invariant violations are
// reported in the OverloadReport.
func RunOverload(o OverloadOptions) (*OverloadReport, error) {
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Policy == "" {
		o.Policy = "token-bucket"
	}
	if _, err := pmproxy.NewPolicy(o.Policy, overloadAdmission(o.Policy)); err != nil {
		return nil, err
	}
	rep := &OverloadReport{Opts: o}
	if o.Trial >= 0 {
		t, err := runOverloadTrial(o, o.Trial)
		if err != nil {
			return nil, err
		}
		rep.Trials = []OverloadTrial{t}
		return rep, nil
	}
	trials, err := sweep.Map(o.Trials, o.Workers, func(i int) (OverloadTrial, error) {
		return runOverloadTrial(o, i)
	})
	if err != nil {
		return nil, err
	}
	rep.Trials = trials
	return rep, nil
}

// oTenant is one tenant's arrival stream and harness-side accounting.
type oTenant struct {
	name  string
	id    uint32
	pmids []uint32

	// Arrivals: spacing is uniform in [0.25, 1.75] of the mean
	// inter-arrival time, drawn from the tenant's own seed substream.
	// The jitter is wide on purpose: gold's minimum spacing dips below
	// the service time, so the uncontended baseline includes gold's own
	// burst-collision tail and the 2x protection bound compares the
	// contended tail against a real p99, not a constant.
	rng  *xrand.Source
	base int64 // mean inter-arrival, virtual ns
	next int64 // next arrival, virtual ns

	issued, admitted, shed, stale int64
	lats                          []int64
}

func (s *oTenant) scheduleNext() {
	s.next += s.base/4 + s.rng.Int63n(3*s.base/2+1)
}

// oDriver is one trial's single-threaded world: the shared virtual
// clock, the FIFO service model, and the proxy under test.
type oDriver struct {
	proxy     *pmproxy.Proxy
	clock     *simtime.Clock
	now       int64
	busyUntil int64 // FIFO: virtual time the modelled upstream goes idle
	violate   func(format string, args ...any)
}

// issue advances the clock to the tenant's arrival, issues one fetch,
// classifies the outcome against the proxy's own per-tenant counters,
// and — for admitted requests — runs the FIFO service model. sink
// receives the latency when the phase is measured.
func (d *oDriver) issue(s *oTenant, sink *[]int64) {
	d.clock.Advance(simtime.Duration(s.next - d.now))
	d.now = s.next
	before := d.proxy.TenantStatsFor(s.id)
	_, err := d.proxy.FetchTenant(s.id, s.pmids)
	after := d.proxy.TenantStatsFor(s.id)
	s.issued++
	if after.Issued != before.Issued+1 {
		d.violate("%s: proxy did not count the issued request", s.name)
	}
	switch {
	case err != nil:
		if !pmproxy.IsShed(err) || !errors.Is(err, pcp.ErrOverload) {
			d.violate("%s: rejected with untyped error: %v", s.name, err)
		}
		if after.Shed != before.Shed+1 {
			d.violate("%s: typed rejection not counted as shed", s.name)
		}
		s.shed++
	case after.StaleServed == before.StaleServed+1:
		s.stale++
	default:
		if after.Admitted != before.Admitted+1 {
			d.violate("%s: served request not counted as admitted", s.name)
		}
		s.admitted++
		start := d.now
		if d.busyUntil > start {
			start = d.busyUntil
		}
		d.busyUntil = start + int64(overloadService)
		if sink != nil {
			*sink = append(*sink, d.busyUntil-d.now)
		}
	}
}

// phase drives the merged tenant arrival streams until every next
// arrival is at or past end. Ties break by tenant order (gold first) —
// deterministic, like everything else here.
func (d *oDriver) phase(end int64, tenants []*oTenant, sinkFor func(*oTenant) *[]int64) {
	for {
		var s *oTenant
		for _, c := range tenants {
			if c.next < end && (s == nil || c.next < s.next) {
				s = c
			}
		}
		if s == nil {
			return
		}
		d.issue(s, sinkFor(s))
		s.scheduleNext()
	}
}

// pctile returns the q-th percentile (nearest-rank on the sorted
// sample) of lats, or 0 for an empty sample.
func pctile(lats []int64, q int) int64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]int64(nil), lats...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[(len(s)-1)*q/100]
}

// runOverloadTrial drives one complete overload testbed
// single-threadedly; everything derives from the trial seed.
func runOverloadTrial(o OverloadOptions, idx int) (OverloadTrial, error) {
	seed := sweep.Seed(o.Seed, idx)
	t := OverloadTrial{Index: idx, Seed: seed, Policy: o.Policy}
	violate := func(format string, args ...any) {
		t.Violations = append(t.Violations, fmt.Sprintf(format, args...))
	}

	clock := simtime.NewClock()
	daemon, err := pcp.NewDaemon(clock, Interval, Metrics())
	if err != nil {
		return t, err
	}
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		return t, err
	}
	defer daemon.Close()

	proxy := pmproxy.New(pmproxy.Config{
		Upstream: addr,
		Clock:    clock,
		// Interval 0: no coalescing window, so every admitted fetch is
		// an upstream round trip — exactly the work the quotas meter.
		Interval:  0,
		Timeout:   2 * time.Second,
		Admission: overloadAdmission(o.Policy),
		PoolSize:  1,
	})
	defer proxy.Close()

	newTenant := func(name string, id uint32, rate int64, pmids []uint32, start int64) *oTenant {
		s := &oTenant{
			name:  name,
			id:    id,
			pmids: pmids,
			rng:   xrand.New(mix(seed ^ (overloadStream + uint64(id)))),
			base:  int64(simtime.Second) / rate,
		}
		s.next = start + s.rng.Int63n(s.base+1)
		return s
	}
	gold := newTenant("gold", TenantGold, goldRate, []uint32{1, 2}, 0)
	silver := newTenant("silver", TenantSilver, silverRate, []uint32{3, 4}, int64(baselineDur))
	bronze := newTenant("bronze", TenantBronze, bronzeRate, []uint32{5, 6}, int64(baselineDur))
	all := []*oTenant{gold, silver, bronze}

	d := &oDriver{proxy: proxy, clock: clock, violate: violate}

	// Phase 1 — baseline: gold alone, establishing the uncontended p99
	// every protection bound is measured against.
	var baseline []int64
	d.phase(int64(baselineDur), []*oTenant{gold},
		func(*oTenant) *[]int64 { return &baseline })
	t.BaselineP99 = pctile(baseline, 99)

	// Phase 2 — warmup: all tenants at 2x capacity, unmeasured. Lets
	// the admission state (bucket levels, priority backlog) and the
	// FIFO's admission-transient backlog reach steady state.
	warmEnd := int64(baselineDur + warmupDur)
	d.phase(warmEnd, all, func(*oTenant) *[]int64 { return nil })

	// Phase 3 — measured: same 2x load, latencies recorded per tenant.
	d.phase(warmEnd+int64(measureDur), all,
		func(s *oTenant) *[]int64 { return &s.lats })

	// Per-tenant accounting: the harness's own classification must
	// match the proxy's counters, and conservation must hold exactly.
	var sumIssued, sumAdmitted, sumShed, sumStale int64
	for _, s := range all {
		ts := proxy.TenantStatsFor(s.id)
		if ts.Issued != s.issued || ts.Admitted != s.admitted ||
			ts.Shed != s.shed || ts.StaleServed != s.stale {
			violate("%s: proxy stats %+v != harness issued=%d admitted=%d shed=%d stale=%d",
				s.name, ts, s.issued, s.admitted, s.shed, s.stale)
		}
		if ts.Issued != ts.Admitted+ts.Shed+ts.StaleServed {
			violate("%s: conservation broken: issued %d != admitted %d + shed %d + stale %d",
				s.name, ts.Issued, ts.Admitted, ts.Shed, ts.StaleServed)
		}
		sumIssued += s.issued
		sumAdmitted += s.admitted
		sumShed += s.shed
		sumStale += s.stale
		t.Tenants = append(t.Tenants, TenantOutcome{
			Name: s.name, Tenant: s.id,
			Issued: s.issued, Admitted: s.admitted,
			Shed: s.shed, StaleServed: s.stale,
			Samples: len(s.lats),
			P50:     pctile(s.lats, 50),
			P99:     pctile(s.lats, 99),
			Max:     pctile(s.lats, 100),
		})
	}
	t.Proxy = proxy.Stats()
	st := t.Proxy

	// Aggregate accounting: the proxy-wide counters are exactly the
	// per-tenant sums, and with Interval 0 and a healthy upstream every
	// admitted request is one upstream fetch.
	if st.ClientFetches != sumIssued {
		violate("aggregate: ClientFetches=%d != issued sum %d", st.ClientFetches, sumIssued)
	}
	if st.Shed != sumShed {
		violate("aggregate: Shed=%d != per-tenant shed sum %d", st.Shed, sumShed)
	}
	if st.StaleServes != sumStale {
		violate("aggregate: StaleServes=%d != per-tenant stale sum %d", st.StaleServes, sumStale)
	}
	if st.UpstreamFetches != sumAdmitted {
		violate("aggregate: UpstreamFetches=%d != admitted sum %d", st.UpstreamFetches, sumAdmitted)
	}
	if st.UpstreamErrors != 0 {
		violate("aggregate: %d upstream errors with a healthy upstream", st.UpstreamErrors)
	}

	// Policy verdicts.
	g, s2, b := t.Tenants[0], t.Tenants[1], t.Tenants[2]
	switch o.Policy {
	case "reject-all":
		for _, o := range t.Tenants {
			if o.Shed != o.Issued {
				violate("reject-all: %s shed %d of %d issued", o.Name, o.Shed, o.Issued)
			}
		}
		if st.UpstreamFetches != 0 {
			violate("reject-all: %d requests reached the upstream", st.UpstreamFetches)
		}
	case "always-admit":
		if sumShed != 0 || sumStale != 0 {
			violate("always-admit: shed=%d stale=%d, want 0/0", sumShed, sumStale)
		}
		// The control arm: unprotected 2x overload must blow the bound,
		// or the protection assertions below prove nothing.
		if t.BaselineP99 <= 0 || g.P99 <= 2*t.BaselineP99 {
			violate("control arm failed to collapse: gold p99 %dns vs baseline %dns",
				g.P99, t.BaselineP99)
		}
	default: // protecting policies: token-bucket, priority
		if g.Shed != 0 || g.StaleServed != 0 {
			violate("%s: gold was degraded: shed=%d stale=%d", o.Policy, g.Shed, g.StaleServed)
		}
		if t.BaselineP99 <= 0 {
			violate("%s: no gold baseline", o.Policy)
		} else if g.P99 > 2*t.BaselineP99 {
			violate("%s: gold p99 %dns exceeds 2x baseline %dns (ratio %.2f)",
				o.Policy, g.P99, t.BaselineP99, float64(g.P99)/float64(t.BaselineP99))
		}
		if s2.Shed == 0 {
			violate("%s: silver at 2x quota was never shed", o.Policy)
		}
		if b.StaleServed == 0 {
			violate("%s: degradable bronze was never served stale", o.Policy)
		}
	}
	return t, nil
}
