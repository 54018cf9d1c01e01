package metricql

import (
	"testing"

	"papimc/internal/archive"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// replayFixture records 1200 samples at a 100ms cadence — a linear
// counter (+700 per step), a near-wrap counter, and a sawtooth level —
// into an archive with 1s and 10s rollup tiers, and returns a replay
// source whose clock sits at the last sample.
func replayFixture(t *testing.T) (*archive.Replay, *archive.Archive, *simtime.Clock) {
	t.Helper()
	a, err := archive.New([]pcp.NameEntry{
		{PMID: 1, Name: "bench.counter"},
		{PMID: 2, Name: "bench.level"},
		{PMID: 3, Name: "bench.wrapping"},
	}, archive.Options{Rollups: []int64{1_000_000_000, 10_000_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	w0 := ^uint64(0) - 2000
	for i := 0; i < 1200; i++ {
		err := a.AppendSample(archive.Sample{
			Timestamp: int64(i) * 100_000_000,
			Values: []uint64{
				uint64(i) * 700,
				uint64(500 + 100*(i%7)),
				w0 + uint64(i)*700, // wraps between i=2 and i=3
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	clock := simtime.NewClock()
	clock.AdvanceTo(simtime.Time(1199 * 100_000_000))
	return archive.NewReplay(a, clock), a, clock
}

// TestPushdownAnswersFromHistory: on the very first evaluation the
// engine's sample ring holds one sample, so the ring path can only echo
// the current value — a pushed-down window must instead aggregate the
// archived history. That difference proves the pushdown path ran, and
// the values pin its exactness.
func TestPushdownAnswersFromHistory(t *testing.T) {
	r, _, _ := replayFixture(t)
	e := NewEngine(r)

	// 60s window ending at the clock: [59.9s, 119.9s) holds samples
	// i=599..1198 of the sawtooth (full 7-cycles plus remainder).
	qMin, err := e.Query("min_over(bench.level, 60s)")
	if err != nil {
		t.Fatal(err)
	}
	qMax, err := e.Query("max_over(bench.level, 60s)")
	if err != nil {
		t.Fatal(err)
	}
	qRate, err := e.Query("rate_over(bench.counter, 60s)")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := e.EvalAll(qMin, qMax, qRate)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vs[0].Scalar(); v != 500 {
		t.Errorf("min_over = %v, want 500 (ring fallback would echo the current sample)", v)
	}
	if v, _ := vs[1].Scalar(); v != 1100 {
		t.Errorf("max_over = %v, want 1100", v)
	}
	// 600 steps of +700 over a 60s window, divided exactly as the
	// archive's rate path divides.
	wantRate := float64(600*700) / (float64(60_000_000_000) / 1e9)
	if v, _ := vs[2].Scalar(); v != wantRate {
		t.Errorf("rate_over = %v, want exactly %v", v, wantRate)
	}
}

// TestPushdownAvgMatchesArchive: avg_over pushdown must equal the
// archive's own window aggregate (Sum/Count) at the resolution the
// planner selects — and that resolution must be a rollup tier for a
// window this long, not the raw path.
func TestPushdownAvgMatchesArchive(t *testing.T) {
	r, a, clock := replayFixture(t)
	e := NewEngine(r)
	q, err := e.Query("avg_over(bench.level, 100s)")
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.Eval()
	if err != nil {
		t.Fatal(err)
	}
	now := int64(clock.Now())
	t0, t1 := now-100_000_000_000, now
	res := a.SelectResolution(t0, t1)
	if res == archive.ResRaw {
		t.Fatalf("100s window over 1s/10s tiers selected the raw path")
	}
	agg, err := a.WindowAt(res, 2, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	want := agg.Sum / float64(agg.Count)
	if got, _ := v.Scalar(); got != want {
		t.Errorf("avg_over pushdown = %v, want %v (archive agg at %v)", got, want, res)
	}
}

// TestPushdownRateAcrossWrap: the pushdown rate path sums per-sample
// wrap-corrected deltas, so a counter that wraps inside the window still
// reports its exact rate.
func TestPushdownRateAcrossWrap(t *testing.T) {
	r, _, _ := replayFixture(t)
	e := NewEngine(r)
	q, err := e.Query("rate_over(bench.wrapping, 119s)")
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.Eval()
	if err != nil {
		t.Fatal(err)
	}
	wantRate := float64(1190*700) / (float64(119_000_000_000) / 1e9)
	if got, _ := v.Scalar(); got != wantRate {
		t.Errorf("rate_over across wrap = %v, want exactly %v", got, wantRate)
	}
}

// TestPushdownFallbackForComposedArgs: a windowed function whose
// argument is not a bare metric cannot push down — it must fall back to
// the engine's sample ring, which on a first evaluation holds only the
// current sample.
func TestPushdownFallbackForComposedArgs(t *testing.T) {
	r, _, _ := replayFixture(t)
	e := NewEngine(r)
	qPush, err := e.Query("min_over(bench.level, 60s)")
	if err != nil {
		t.Fatal(err)
	}
	qRing, err := e.Query("min_over(bench.level + 0, 60s)")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := e.EvalAll(qPush, qRing)
	if err != nil {
		t.Fatal(err)
	}
	// Sample 1199: level = 500 + 100*(1199%7) = 700.
	if v, _ := vs[1].Scalar(); v != 700 {
		t.Errorf("ring fallback min_over = %v, want the lone current sample 700", v)
	}
	if v, _ := vs[0].Scalar(); v != 500 {
		t.Errorf("pushdown min_over = %v, want the archived window min 500", v)
	}
}

// TestPinnedReplayNeverReadsFiner: a replay pinned to the 10s tier must
// answer a window the planner would satisfy at 1s from the 10s tier
// instead.
func TestPinnedReplayNeverReadsFiner(t *testing.T) {
	_, a, clock := replayFixture(t)
	r := archive.NewReplayAt(a, clock, archive.Resolution(10_000_000_000))
	now := int64(clock.Now())
	got, ok, err := r.EvalWindow("avg_over", 2, now-20_000_000_000, now)
	if err != nil || !ok {
		t.Fatalf("pinned EvalWindow = %v, %v, %v", got, ok, err)
	}
	agg, err := a.WindowAt(archive.Resolution(10_000_000_000), 2, now-20_000_000_000, now)
	if err != nil {
		t.Fatal(err)
	}
	if want := agg.Sum / float64(agg.Count); got != want {
		t.Errorf("pinned replay window = %v, want the 10s tier's %v", got, want)
	}
}

// TestRingRateOverAndMinOver: the ring fallbacks for the two new
// windowed functions, pinned on a scriptable live source — min_over
// reduces the retained samples, rate_over wrap-corrects each step
// between them.
func TestRingRateOverAndMinOver(t *testing.T) {
	e, f := newEngineFake()
	qMin, err := e.Query("min_over(rate(nest.mba0.read_bytes), 2s)")
	if err != nil {
		t.Fatal(err)
	}
	qRate, err := e.Query("rate_over(nest.mba0.read_bytes, 3s)")
	if err != nil {
		t.Fatal(err)
	}
	// Counter near the top of the range climbing 2048/step — every
	// value is a multiple of 2048, so its float64 image in the ring is
	// exact — wrapping to zero between steps 2 and 3.
	top := ^uint64(0) - 6143 // 2^64 - 6144
	vals := []uint64{top, top + 2048, top + 4096, 0, 2048}
	// rates per 1s step (uint64-exact in the PMID's slot): 0 then 2048.
	wantMin := []float64{0, 0, 2048, 2048, 2048}
	// rate_over spans the ring's (ts-3s, ts] samples: their
	// wrap-corrected steps, summed, over dt.
	wantRate := []float64{0, 2048, 2048, 2048, 2048}
	for i, v := range vals {
		f.vals[1] = v
		f.ts = int64(i) * 1_000_000_000
		vs, err := e.EvalAll(qMin, qRate)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := vs[0].Scalar(); got != wantMin[i] {
			t.Errorf("step %d: min_over = %v, want %v", i, got, wantMin[i])
		}
		if got, _ := vs[1].Scalar(); got != wantRate[i] {
			t.Errorf("step %d: rate_over = %v, want %v", i, got, wantRate[i])
		}
	}
}

// TestParseNewWindowedFuncs pins the grammar of min_over and rate_over:
// canonical forms and the rate_over metric-argument restriction.
func TestParseNewWindowedFuncs(t *testing.T) {
	for src, want := range map[string]string{
		"min_over(kernel.load, 5s)":        "min_over(kernel.load, 5000000000ns)",
		"rate_over(bench.counter, 500ms)":  "rate_over(bench.counter, 500000000ns)",
		"min_over(rate(kernel.load), 10s)": "min_over(rate(kernel.load), 10000000000ns)",
	} {
		ex, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := ex.String(); got != want {
			t.Errorf("Parse(%q) canonical = %q, want %q", src, got, want)
		}
	}
	for _, src := range []string{
		"rate_over(kernel.load + 1, 5s)", // metricArg violation
		"min_over(kernel.load)",          // missing window
		"rate_over(kernel.load, 0s)",     // non-positive window
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted, want error", src)
		}
	}
}

// planSource is a fakeSource that answers every window itself, so a
// panel of windowed functions over bare metrics never reaches the ring.
type planSource struct{ *fakeSource }

func (p planSource) EvalWindow(fn string, pmid uint32, t0, t1 int64) (float64, bool, error) {
	p.windows++
	return float64(pmid), true, nil
}

// TestEvalAllStepAllocs pins what the engine allocates for one step of
// a bound, pushdown-only panel: nothing. The sorted PMID list, the
// slots and the interned nodes are built at bind; a step decodes the
// fake's reply into the one the engine keeps (the fake, like
// pcp.Client, offers FetchInto), reads it by position, and every node
// writes its value into storage it owns, the answer slice being the
// engine's too. A result slice, a window node's values or the sum's
// scalar made afresh each step would each show here.
func TestEvalAllStepAllocs(t *testing.T) {
	src := planSource{newFake()}
	e := NewEngine(src)
	var qs []*Query
	for _, expr := range []string{
		"sum(rate_over(perfevent.*, 2s))",
		"max_over(kernel.load, 30s)",
		"rate_over(kernel.load, 200ms)",
	} {
		q, err := e.Query(expr)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	const bound = 0
	allocs := testing.AllocsPerRun(100, func() {
		src.ts++ // a new daemon sample every step, as a panel stepping through history sees
		if vs, err := e.EvalAll(qs...); err != nil || vs[0].Vals[0] != 1+2+3+4 {
			t.Fatalf("EvalAll = %v, %v", vs, err)
		}
	})
	if allocs > bound {
		t.Errorf("one panel step allocates %v times, want at most %d", allocs, bound)
	}
}

// ringOnly hides a replay's WindowPlanner, so windowed functions over it
// take the engine's sample ring.
type ringOnly struct{ rp *archive.Replay }

func (s ringOnly) Names() ([]pcp.NameEntry, error)               { return s.rp.Names() }
func (s ringOnly) Fetch(pmids []uint32) (pcp.FetchResult, error) { return s.rp.Fetch(pmids) }

// TestRateOverCounterWrappingTwice: a counter climbing 2^57 a second
// wraps every 128 samples, so a 300 s and a 700 s window hold two wraps
// or more (a 64-row block's summed steps, 63·2^57, still fit its int64
// Delta). Stepped across the recording, the ring's rate_over must equal
// a scan of the samples in (ts−w, ts] — the sum of their wrap-corrected
// steps over their span — and the pushdown's a scan of the rows in
// [ts−w, ts) and the step on to ts, over w.
func TestRateOverCounterWrappingTwice(t *testing.T) {
	const sec, n, incr = int64(1_000_000_000), 1000, uint64(1) << 57
	a, err := archive.New([]pcp.NameEntry{{PMID: 1, Name: "bench.counter"}}, archive.Options{Rollups: []int64{}})
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int64) uint64 { return uint64(i)*incr + 1<<40 } // exact as float64
	for i := int64(0); i < n; i++ {
		if err := a.AppendSample(archive.Sample{Timestamp: i * sec, Values: []uint64{val(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	clock := simtime.NewClock()
	ring, push := NewEngine(ringOnly{archive.NewReplay(a, clock)}), NewEngine(archive.NewReplay(a, clock))
	windows := map[int64][2]*Query{}
	for w, d := range map[int64]string{300: "300s", 700: "700s"} {
		qr, err := ring.Query("rate_over(bench.counter, " + d + ")")
		if err != nil {
			t.Fatal(err)
		}
		qp, err := push.Query("rate_over(bench.counter, " + d + ")")
		if err != nil {
			t.Fatal(err)
		}
		windows[w] = [2]*Query{qr, qp}
	}
	for i := int64(0); i < n; i++ {
		clock.AdvanceTo(simtime.Time(i * sec))
		for w, q := range windows {
			// The ring: samples i-w+1 .. i, one step apart each.
			lo := max(i-w+1, 0)
			wantRing := 0.0
			for k := lo + 1; k <= i; k++ {
				wantRing += float64(pcp.CounterDelta(val(k-1), val(k)))
			}
			if i > lo {
				wantRing /= float64(i - lo)
			}
			// The pushdown: rows in [i-w, i), and the step on to row i.
			wantPush := 0.0
			for k := max(i-w, 0) + 1; k <= i; k++ {
				wantPush += float64(int64(pcp.CounterDelta(val(k-1), val(k))))
			}
			wantPush /= float64(w)
			if got := mustScalar(t, q[0]); got != wantRing {
				t.Errorf("%d s window at %d s, ring: %v, want %v", w, i, got, wantRing)
			}
			if got := mustScalar(t, q[1]); i > 0 && got != wantPush {
				t.Errorf("%d s window at %d s, pushdown: %v, want %v", w, i, got, wantPush)
			}
		}
	}
}

func mustScalar(t *testing.T, q *Query) float64 {
	t.Helper()
	v, err := q.Eval()
	if err != nil {
		t.Fatal(err)
	}
	f, err := v.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	return f
}
