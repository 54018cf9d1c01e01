// Package chaos is the fault-injection property harness for the serving
// stack: it drives a live daemon → pmproxy → client testbed through a
// seeded faultconn schedule and checks the stack's safety contract on
// every operation. The proxy's upstream clients negotiate the protocol
// as every real client does, so the faults land on the tagged,
// pipelined Version3 path.
//
// The contract under ANY fault schedule:
//
//   - A served fetch result is never torn or corrupt: every value is
//     consistent with the result's timestamp. The testbed's metrics are
//     self-certifying — metric pmid's value at daemon time t is
//     certVal(pmid, t), a full-avalanche mix — so a torn snapshot, a
//     re-stamped stale answer, or an undetected corruption breaks the
//     value↔timestamp binding and is caught by recomputation.
//   - A result is either fresh (timestamp == the shared clock's now) or
//     declared stale (its original, older timestamp) — never silently
//     re-stamped.
//   - A failed fetch is a clean, typed error (pmproxy.ErrUpstreamDown),
//     not a hang, a partial result, or a raw transport error.
//   - The proxy's Stats exactly account for every injected fault:
//     ClientFetches = CoalescedHits + UpstreamFetches + StaleServes +
//     observed errors; UpstreamErrors = Retries + Exhausted; every
//     exhaustion surfaces as exactly one stale serve (fetch or name) or
//     one observed ErrUpstreamDown; with corruption disabled,
//     UpstreamErrors equals the injector's fatal fault count exactly.
//   - The archive Recorder tee never writes a partial or torn row: the
//     recording always re-reads cleanly and every archived row is
//     self-consistent.
//
// Corruption is the one deliberate hole: the PDU protocol carries no
// checksum (matching PCP's trust model — the transport is assumed
// reliable), so a flipped payload byte can decode into a plausible wrong
// value — and because the proxy caches what it decodes, one corruption
// can be served many times within an interval. With CorruptEvery (or
// exact Corrupt faults) enabled the checks run in tolerant mode:
// inconsistencies may only appear when corruption actually fired, and
// errors stay clean, but per-value consistency is not a hard invariant
// and there is no tight numeric bound (cache amplification). DESIGN.md
// section 11 documents this boundary.
//
// Determinism: a trial's entire behaviour — fault trace, stats, verdict
// — is a pure function of (Options.Seed, trial index). Each trial runs
// single-threaded against its own testbed, trials parallelize via
// sweep.Map with in-order reassembly, and all randomness (op mix, pmid
// subsets, clock advances, fault offsets, retry jitter) derives from
// SplitMix64 substreams of the trial seed. The same seed reproduces the
// same report at any worker count.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"papimc/internal/archive"
	"papimc/internal/faultconn"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
	"papimc/internal/sweep"
	"papimc/internal/xrand"
)

// NumMetrics is the testbed's metric count; pmids are 1..NumMetrics.
const NumMetrics = 8

// Interval is the testbed daemon's sampling interval (simulated time).
const Interval = 10 * simtime.Millisecond

// Options configures a chaos run.
type Options struct {
	// Seed is the base seed; trial i derives sweep.Seed(Seed, i).
	Seed uint64
	// Trials is how many independent testbeds to drive.
	Trials int
	// Ops is the operation count per trial.
	Ops int
	// Workers parallelizes trials (never operations within a trial);
	// sweep.Workers semantics: 0 = GOMAXPROCS, capped.
	Workers int
	// Schedule is the fault plan, shared by all trials (each trial's
	// injector draws from its own seed substream). A zero MaxStall is
	// defaulted to 100ms so stall-heavy sweeps stay fast.
	Schedule faultconn.Schedule
	// Timeout bounds each proxy→daemon round trip (wall clock). Zero
	// means 2s — generous, so only injected faults fail operations.
	Timeout time.Duration
	// BreakStale simulates a stale-serving bug (results re-stamped to
	// now) to prove the suite detects it. Test-only.
	BreakStale bool
	// Trial, when >= 0, runs only that single trial index — the replay
	// path for a failure line. -1 runs all.
	Trial int
}

// Outcome is what every suite's trial records about itself: its index,
// its seed (sweep.Seed of the base seed and the index) and the contract
// violations it found.
type Outcome struct {
	Index      int
	Seed       uint64
	Violations []string
}

// violate records one contract violation.
func (o *Outcome) violate(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}

func (o Outcome) outcome() Outcome { return o }

// trial is one suite's per-trial result: an embedded Outcome and the
// trial's report lines, rendered deterministically.
type trial interface {
	outcome() Outcome
	render(b *strings.Builder)
}

// Report is a full run's outcome: its trials in index order.
type Report[T trial] struct {
	Trials []T
}

// Outcomes returns each trial's Outcome in report order.
func (r *Report[T]) Outcomes() []Outcome {
	out := make([]Outcome, len(r.Trials))
	for i, t := range r.Trials {
		out[i] = t.outcome()
	}
	return out
}

// Failed reports whether any trial violated its contract.
func (r *Report[T]) Failed() bool {
	for _, o := range r.Outcomes() {
		if len(o.Violations) > 0 {
			return true
		}
	}
	return false
}

// String renders the deterministic per-trial report. Two runs with the
// same options produce byte-identical output at any worker count.
func (r *Report[T]) String() string {
	var b strings.Builder
	for _, t := range r.Trials {
		t.render(&b)
		for _, v := range t.outcome().Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	return b.String()
}

// runTrials runs trials 0..n-1 over sweep.Map with in-order
// reassembly, or only trial only when it is >= 0 (the replay path for a
// failure line). run receives each trial's Outcome with its index and
// seed already set.
func runTrials[T trial](seed uint64, n, workers, only int, run func(Outcome) (T, error)) (*Report[T], error) {
	one := func(i int) (T, error) { return run(Outcome{Index: i, Seed: sweep.Seed(seed, i)}) }
	if only >= 0 {
		t, err := one(only)
		if err != nil {
			return nil, err
		}
		return &Report[T]{Trials: []T{t}}, nil
	}
	trials, err := sweep.Map(n, workers, one)
	if err != nil {
		return nil, err
	}
	return &Report[T]{Trials: trials}, nil
}

// Names returns a profile table's names in sorted order.
func Names[P any](profiles map[string]P) []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Trial is one fault-suite trial's observed outcome. All fields are
// deterministic functions of (base seed, index).
type Trial struct {
	Outcome

	Fetches   int // proxy.Fetch calls (direct + recorder tee)
	NameOps   int
	FetchErrs int
	NameErrs  int
	Stale     int // successes served with an old (declared) timestamp
	Inconsist int // values failing the certVal check (corruption mode)
	Records   int // rows in the recorder's archive after replay
	Faults    faultconn.Stats
	Proxy     pmproxy.Stats
	Trace     []faultconn.Fault
}

func (t Trial) render(b *strings.Builder) {
	fmt.Fprintf(b, "trial %02d seed=%#016x ops=%d fetches=%d names=%d errs=%d/%d stale=%d inconsistent=%d records=%d faults[%s] proxy[fetch=%d up=%d coal=%d stale=%d/%d uerr=%d retry=%d exh=%d redial=%d]\n",
		t.Index, t.Seed, t.Fetches+t.NameOps, t.Fetches, t.NameOps,
		t.FetchErrs, t.NameErrs, t.Stale, t.Inconsist, t.Records, t.Faults,
		t.Proxy.ClientFetches, t.Proxy.UpstreamFetches, t.Proxy.CoalescedHits,
		t.Proxy.StaleServes, t.Proxy.StaleNameServes, t.Proxy.UpstreamErrors,
		t.Proxy.Retries, t.Proxy.Exhausted, t.Proxy.Redials)
	for _, f := range t.Trace {
		fmt.Fprintf(b, "  fault %s\n", f)
	}
}

// certGamma decorrelates the pmid and timestamp inputs of certVal.
const certGamma = 0x9E3779B97F4A7C15

// certVal is the self-certifying metric value: what metric pmid must
// read at daemon time ts. Full-avalanche, so any single-bit disagreement
// between a served value and its timestamp is detected.
func certVal(pmid uint32, ts int64) uint64 {
	return mix(uint64(ts)*certGamma + uint64(pmid))
}

// mix is one SplitMix64 scramble.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Metrics builds the testbed's self-certifying metric set. Names are
// zero-padded so sorted-name order equals numeric order and metric i
// gets pmid i+1 — which each Read closure bakes in.
func Metrics() []pcp.Metric {
	ms := make([]pcp.Metric, NumMetrics)
	for i := range ms {
		pmid := uint32(i + 1)
		ms[i] = pcp.Metric{
			Name: fmt.Sprintf("chaos.metric.%02d", i),
			Read: func(t simtime.Time) (uint64, error) { return certVal(pmid, int64(t)), nil },
		}
	}
	return ms
}

// Substream salts decorrelating the per-trial RNG streams (op mix,
// retry jitter) from the injector's fault streams, which use the trial
// seed directly.
const (
	opStream      = 0x095
	backoffStream = 0xB0FF
)

// Profiles are the named fault schedules shared by the test suite and
// the cmd/chaos driver. Mean spacings are tuned to a trial's traffic
// volume (a few KB per direction) so each faulty profile fires a
// handful of faults per trial without drowning the stack.
var Profiles = map[string]faultconn.Schedule{
	"clean":    {},
	"chunked":  {MaxChunk: 7},
	"latency":  {LatencyEvery: 300, LatencyAmount: 200 * time.Microsecond, MaxChunk: 32},
	"resets":   {ResetEvery: 4000, MaxChunk: 64},
	"stalls":   {StallEvery: 6000, MaxStall: 50 * time.Millisecond},
	"refusals": {RefuseProb: 0.3},
	// flaky breaks live connections AND makes redials fail: the recipe
	// for exhausted retries against a warm cache, i.e. stale serves.
	"flaky":   {RefuseProb: 0.5, ResetEvery: 1500, MaxChunk: 32},
	"corrupt": {CorruptEvery: 3000, MaxChunk: 64},
	"mixed": {
		RefuseProb:   0.1,
		ResetEvery:   6000,
		StallEvery:   8000,
		CorruptEvery: 6000,
		LatencyEvery: 2000,
		MaxChunk:     48,
		MaxStall:     50 * time.Millisecond,
	},
}

// ReproLine is the one-command replay for a failing trial: running it
// re-executes exactly that trial (same seed substream, same schedule)
// and reprints its fault trace and violations.
func ReproLine(o Options, trial int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "go run ./cmd/chaos -seed %#x -trials %d -trial %d -ops %d", o.Seed, max(o.Trials, trial+1), trial, o.Ops)
	s := o.Schedule
	if s.RefuseProb > 0 {
		fmt.Fprintf(&b, " -refuse %g", s.RefuseProb)
	}
	if s.ResetEvery > 0 {
		fmt.Fprintf(&b, " -reset %d", s.ResetEvery)
	}
	if s.StallEvery > 0 {
		fmt.Fprintf(&b, " -stall %d", s.StallEvery)
	}
	if s.CorruptEvery > 0 {
		fmt.Fprintf(&b, " -corrupt %d", s.CorruptEvery)
	}
	if s.LatencyEvery > 0 {
		fmt.Fprintf(&b, " -latency %d", s.LatencyEvery)
	}
	if s.MaxChunk > 0 {
		fmt.Fprintf(&b, " -chunk %d", s.MaxChunk)
	}
	if o.BreakStale {
		b.WriteString(" -break-stale")
	}
	return b.String()
}

// Run executes the chaos sweep. The error is only for harness failures
// (listen, daemon construction); invariant violations are reported in
// the Report, not as errors.
func Run(o Options) (*Report[Trial], error) {
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Ops <= 0 {
		o.Ops = 40
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Schedule.MaxStall <= 0 {
		o.Schedule.MaxStall = 100 * time.Millisecond
	}
	return runTrials(o.Seed, o.Trials, o.Workers, o.Trial, func(oc Outcome) (Trial, error) {
		return runTrial(o, oc)
	})
}

// fetcher adapts the in-process Proxy to archive.Fetcher (the proxy has
// no Lookup; the recorder never calls it in this harness).
type fetcher struct{ p *pmproxy.Proxy }

func (f fetcher) Names() ([]pcp.NameEntry, error)             { return f.p.Names() }
func (f fetcher) Fetch(ids []uint32) (pcp.FetchResult, error) { return f.p.Fetch(ids) }
func (f fetcher) Lookup(name string) (uint32, error) {
	ents, err := f.p.Names()
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if e.Name == name {
			return e.PMID, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown metric %q", name)
}

// runTrial drives one complete testbed single-threadedly. Everything
// stochastic derives from the trial seed.
func runTrial(o Options, oc Outcome) (Trial, error) {
	t := Trial{Outcome: oc}

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

	inj := faultconn.New(t.Seed, o.Schedule)
	dial := inj.Dial(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	proxy := pmproxy.New(pmproxy.Config{
		Dial: func() (*pcp.Client, error) {
			c, err := dial()
			if err != nil {
				return nil, err
			}
			return pcp.NewClientConn(c)
		},
		Clock:      clock,
		Interval:   Interval,
		Timeout:    o.Timeout,
		MaxRetries: 2,
		Backoff:    time.Millisecond,
		BackoffMax: 4 * time.Millisecond,
		Seed:       mix(t.Seed ^ backoffStream),
		PoolSize:   1,
	})
	defer proxy.Close()

	arch, err := archive.New(daemon.Names(), archive.Options{})
	if err != nil {
		return t, err
	}
	rec := archive.NewRecorder(fetcher{proxy}, arch)

	corruptOn := o.Schedule.CorruptEvery > 0
	for _, f := range o.Schedule.Exact {
		if f.Kind == faultconn.Corrupt {
			corruptOn = true
		}
	}

	rng := xrand.New(mix(t.Seed ^ opStream))
	allPMIDs := make([]uint32, NumMetrics)
	for i := range allPMIDs {
		allPMIDs[i] = uint32(i + 1)
	}
	// The proxy's coalescing cache is keyed by exact pmid-set, so the
	// driver fetches from a small per-trial palette of subsets rather
	// than a fresh random set each op: repeated keys are what exercise
	// coalesced hits and stale fallback.
	palette := make([][]uint32, 4)
	for i := range palette {
		k := 1 + rng.Intn(NumMetrics)
		perm := rng.Perm(NumMetrics)
		sub := make([]uint32, k)
		for j := 0; j < k; j++ {
			sub[j] = uint32(perm[j] + 1)
		}
		palette[i] = sub
	}
	upstreamDownSeen := 0

	// checkFetch verifies one served result against the contract. now is
	// the shared clock at the moment of the call; requested is the exact
	// pmid order the caller asked for.
	checkFetch := func(res pcp.FetchResult, now int64, requested []uint32) {
		ts := res.Timestamp
		if ts > now {
			if corruptOn {
				t.Inconsist++ // a flipped timestamp byte, tolerated
				return
			}
			t.violate("result timestamp %d is in the future (now %d)", ts, now)
		}
		// The driver only advances the clock in whole-interval steps, so
		// a fresh (or coalesced) answer has ts == now exactly and a stale
		// serve has ts < now strictly.
		if ts != now {
			t.Stale++
		}
		if o.BreakStale && ts != now {
			// Simulated bug: a proxy that re-stamps stale answers. The
			// value↔timestamp binding must catch this.
			ts = now
		}
		if len(res.Values) != len(requested) {
			if corruptOn {
				t.Inconsist++
				return
			}
			t.violate("result has %d values for a %d-pmid request", len(res.Values), len(requested))
			return
		}
		for i, v := range res.Values {
			bad := v.PMID != requested[i] || v.Status != pcp.StatusOK || v.Value != certVal(v.PMID, ts)
			if !bad {
				continue
			}
			t.Inconsist++
			if !corruptOn {
				t.violate("torn/corrupt value: op-ts=%d pmid=%d (want %d) status=%d value=%#x want=%#x",
					res.Timestamp, v.PMID, requested[i], v.Status, v.Value, certVal(v.PMID, ts))
			}
		}
	}
	checkErr := func(err error, path string) {
		if !errors.Is(err, pmproxy.ErrUpstreamDown) {
			t.violate("unclean %s error (not ErrUpstreamDown): %v", path, err)
			return
		}
		upstreamDownSeen++
	}

	for op := 0; op < o.Ops; op++ {
		// Advance in whole intervals or not at all: keeps fresh results
		// exactly at ts == now (see checkFetch) while still exercising the
		// coalescing window when the clock holds still.
		if rng.Intn(2) == 0 {
			clock.Advance(Interval + simtime.Millisecond)
		}
		now := int64(clock.Now())
		switch pick := rng.Intn(10); {
		case pick < 6: // direct fetch of a palette pmid subset
			sub := palette[rng.Intn(len(palette))]
			t.Fetches++
			res, err := proxy.Fetch(sub)
			if err != nil {
				t.FetchErrs++
				checkErr(err, "fetch")
				continue
			}
			checkFetch(res, now, sub)
		case pick < 8: // recorder tee: fetch full schema through the proxy
			t.Fetches++
			res, err := rec.Fetch(allPMIDs)
			if err != nil {
				t.FetchErrs++
				checkErr(err, "recorder fetch")
				continue
			}
			checkFetch(res, now, allPMIDs)
		default: // name table
			t.NameOps++
			ents, err := proxy.Names()
			if err != nil {
				t.NameErrs++
				checkErr(err, "names")
				continue
			}
			if len(ents) != NumMetrics {
				if corruptOn {
					t.Inconsist++
				} else {
					t.violate("name table has %d entries, want %d", len(ents), NumMetrics)
				}
				continue
			}
			for i, e := range ents {
				if e.PMID != uint32(i+1) || e.Name != fmt.Sprintf("chaos.metric.%02d", i) {
					if corruptOn {
						t.Inconsist++ // cached corrupted table, tolerated
						continue
					}
					t.violate("torn name table entry %d: %+v", i, e)
				}
			}
		}
	}

	t.Proxy = proxy.Stats()
	t.Faults = inj.Stats()
	t.Trace = inj.Trace()
	st := t.Proxy

	// Conservation laws: the Stats counters must exactly account for
	// every operation and every injected fault.
	if st.ClientFetches != int64(t.Fetches) {
		t.violate("ClientFetches=%d but driver issued %d fetches", st.ClientFetches, t.Fetches)
	}
	if got, want := st.CoalescedHits+st.UpstreamFetches+st.StaleServes+int64(t.FetchErrs), st.ClientFetches; got != want {
		t.violate("fetch accounting: coalesced(%d)+upstream(%d)+stale(%d)+errors(%d)=%d != ClientFetches=%d",
			st.CoalescedHits, st.UpstreamFetches, st.StaleServes, t.FetchErrs, got, want)
	}
	if st.UpstreamErrors != st.Retries+st.Exhausted {
		t.violate("retry accounting: UpstreamErrors=%d != Retries=%d + Exhausted=%d",
			st.UpstreamErrors, st.Retries, st.Exhausted)
	}
	// A corrupted timestamp byte can make the driver misclassify a result
	// as stale (or fresh), so this law is exact only without corruption.
	if !corruptOn && st.StaleServes != int64(t.Stale) {
		t.violate("stale accounting: StaleServes=%d but driver observed %d stale results", st.StaleServes, t.Stale)
	}
	if got, want := st.StaleServes+st.StaleNameServes+int64(upstreamDownSeen), st.Exhausted; got != want {
		t.violate("exhaustion accounting: stale(%d)+staleNames(%d)+observedErrors(%d)=%d != Exhausted=%d",
			st.StaleServes, st.StaleNameServes, upstreamDownSeen, got, want)
	}
	fatal := int64(t.Faults.Fatal())
	if corruptOn {
		if st.UpstreamErrors < fatal || st.UpstreamErrors > fatal+int64(t.Faults.Corrupts) {
			t.violate("fault accounting: UpstreamErrors=%d outside [fatal=%d, fatal+corrupts=%d]",
				st.UpstreamErrors, fatal, fatal+int64(t.Faults.Corrupts))
		}
		// The proxy caches decoded results, so one corruption can surface
		// as many inconsistencies — no tight bound, but inconsistencies
		// with zero fired corruptions would mean the stack tears data on
		// its own.
		if t.Inconsist > 0 && t.Faults.Corrupts == 0 {
			t.violate("%d inconsistent values with no fired corruption", t.Inconsist)
		}
	} else if st.UpstreamErrors != fatal {
		t.violate("fault accounting: UpstreamErrors=%d != injected fatal faults=%d (%s)",
			st.UpstreamErrors, fatal, t.Faults)
	}

	// Recorder tee integrity: the archive must round-trip its wire format
	// and every row must be complete and self-consistent — a mid-write
	// reset upstream must never leave a partial record.
	var buf bytes.Buffer
	if _, err := arch.WriteTo(&buf); err != nil {
		t.violate("archive WriteTo failed: %v", err)
		return t, nil
	}
	reread, err := archive.Read(&buf, archive.Options{})
	if err != nil {
		t.violate("recorded archive unreadable (partial record?): %v", err)
		return t, nil
	}
	rows, err := reread.All()
	if err != nil {
		t.violate("recorded archive undecodable: %v", err)
		return t, nil
	}
	t.Records = len(rows)
	prevTS := int64(-1 << 62)
	for _, row := range rows {
		if row.Timestamp <= prevTS {
			t.violate("archive rows out of order: %d after %d", row.Timestamp, prevTS)
		}
		prevTS = row.Timestamp
		if len(row.Values) != NumMetrics {
			t.violate("partial archive row at ts=%d: %d of %d values", row.Timestamp, len(row.Values), NumMetrics)
			continue
		}
		for i, v := range row.Values {
			if want := certVal(uint32(i+1), row.Timestamp); v != want {
				if corruptOn {
					continue // bounded by the corruption budget, checked live
				}
				t.violate("corrupt archive row ts=%d pmid=%d value=%#x want=%#x", row.Timestamp, i+1, v, want)
			}
		}
	}
	return t, nil
}
