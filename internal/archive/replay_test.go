package archive_test

import (
	"fmt"
	"math"
	"testing"

	"papimc/internal/arch"
	"papimc/internal/archive"
	"papimc/internal/metricql"
	"papimc/internal/node"
	"papimc/internal/papi"
	"papimc/internal/papi/components/pcpcomp"
	"papimc/internal/pcp"
	"papimc/internal/profile"
	"papimc/internal/simtime"
)

// phases builds the workload used by the cross-validation tests. Emit
// hooks are bound to the given testbed; passing nil yields the same
// phase structure with no live traffic (for replay runs).
func phases(tb *node.Testbed) []profile.Phase {
	emit := func(read bool, bytes int64) func(t0, t1 simtime.Time) {
		if tb == nil {
			return nil
		}
		return func(t0, t1 simtime.Time) {
			tb.Nodes[0].Mem[0].AddTraffic(read, 0, bytes, t0, t1)
		}
	}
	return []profile.Phase{
		{Name: "read-burst", Duration: 100 * simtime.Millisecond, Emit: emit(true, 1<<20)},
		{Name: "idle", Duration: 50 * simtime.Millisecond},
		{Name: "write-burst", Duration: 100 * simtime.Millisecond, Emit: emit(false, 1<<19)},
	}
}

// TestReplayProfileMatchesLive is the acceptance test for the archive
// tier: a profile computed offline from a recording must match the
// profile computed against the live daemon sample-for-sample. The live
// run goes through a Recorder (pmlogger's tee), then the identical
// phase schedule is replayed against the archive on a fresh clock. The
// event list mixes raw PCP counters with a derived bandwidth expression
// so the replay guarantee covers the metricql path too.
func TestReplayProfileMatchesLive(t *testing.T) {
	tb, err := node.NewTestbed(arch.Summit(), 1, node.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	client, err := pcp.Dial(tb.PMCDAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rec, err := archive.NewRecorderFromUpstream(client, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}

	lib := papi.NewLibrary(tb.Clock)
	if err := lib.Register(pcpcomp.New(rec)); err != nil {
		t.Fatal(err)
	}
	dcomp, err := node.DerivedComponentOver(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Register(dcomp); err != nil {
		t.Fatal(err)
	}
	events := tb.NestEventNames(node.ViaPCP)
	events = append(events,
		"derived:::mem.read_bw",
		"derived:::sum(rate(nest.mba*.write_bytes))",
	)
	interval := 10 * simtime.Millisecond
	live, err := profile.Run(lib, events, interval, phases(tb))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Skipped() != 0 {
		t.Fatalf("recorder skipped %d rows", rec.Skipped())
	}
	if rec.Archive().Stats().Samples == 0 {
		t.Fatal("recording is empty")
	}

	// Replay: same events, same phase schedule, fresh clock, no live
	// hardware — every value (raw and derived) comes out of the
	// recording.
	clock2 := simtime.NewClock()
	lib2 := papi.NewLibrary(clock2)
	replay := archive.NewReplay(rec.Archive(), clock2)
	if err := lib2.Register(pcpcomp.New(replay)); err != nil {
		t.Fatal(err)
	}
	dcomp2, err := node.DerivedComponentOver(replay)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib2.Register(dcomp2); err != nil {
		t.Fatal(err)
	}
	replayed, err := profile.Run(lib2, events, interval, phases(nil))
	if err != nil {
		t.Fatal(err)
	}

	if len(replayed.Samples) != len(live.Samples) {
		t.Fatalf("replay has %d samples, live has %d", len(replayed.Samples), len(live.Samples))
	}
	var total uint64
	for i, ls := range live.Samples {
		rs := replayed.Samples[i]
		if rs.Time != ls.Time || rs.Phase != ls.Phase {
			t.Fatalf("sample %d: replay (%v, %s) vs live (%v, %s)", i, rs.Time, rs.Phase, ls.Time, ls.Phase)
		}
		for c := range ls.Values {
			total += ls.Values[c]
			if rs.Values[c] != ls.Values[c] {
				t.Errorf("sample %d event %s: replay %d, live %d", i, live.Events[c], rs.Values[c], ls.Values[c])
			}
		}
	}
	if total == 0 {
		t.Error("live profile saw no traffic; the comparison is vacuous")
	}
}

// TestRecorderServesLikeClient checks the tee is transparent: the values
// a profiler reads through the Recorder are the same values a direct
// client fetch sees, and off-schema PMIDs degrade exactly like the
// daemon (StatusNoSuchPMID).
func TestRecorderServesLikeClient(t *testing.T) {
	tb, err := node.NewTestbed(arch.Summit(), 1, node.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	client, err := pcp.Dial(tb.PMCDAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rec, err := archive.NewRecorderFromUpstream(client, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb.Nodes[0].Mem[0].AddTraffic(true, 0, 64*100, 0, 0)
	tb.Clock.Advance(50 * simtime.Millisecond)

	res, err := rec.Fetch([]uint32{1, 2, 9999})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := client.Fetch([]uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != direct.Values[0] || res.Values[1] != direct.Values[1] {
		t.Errorf("recorder values %v != direct %v", res.Values[:2], direct.Values)
	}
	if res.Values[2].Status != pcp.StatusNoSuchPMID {
		t.Errorf("off-schema pmid status = %d", res.Values[2].Status)
	}
	if rec.Archive().Stats().Samples == 0 {
		t.Error("fetch did not record")
	}
}

// TestReplayBeforeFirstSample: a replay fetch before the recording
// starts serves the first sample (the daemon would have sampled on
// first contact), not an error.
func TestReplayBeforeFirstSample(t *testing.T) {
	a, err := archive.New([]pcp.NameEntry{{PMID: 1, Name: "m"}}, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(pcp.FetchResult{Timestamp: 1000,
		Values: []pcp.FetchValue{{PMID: 1, Status: pcp.StatusOK, Value: 7}}}); err != nil {
		t.Fatal(err)
	}
	clock := simtime.NewClock() // at t=0, before the first sample at t=1000
	r := archive.NewReplay(a, clock)
	res, err := r.Fetch([]uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timestamp != 1000 || res.Values[0].Value != 7 {
		t.Errorf("pre-span fetch = %+v", res)
	}
}

// TestDerivedEquivalenceAcrossTiers is the acceptance test for the
// derived-metrics subsystem: the same expression —
// sum(rate(nest.mba*.read_bytes)) — evaluated against the live daemon,
// through the pmproxy tier, and against a recorded archive agrees
// sample-for-sample, and within the live run the derived bandwidth
// equals the bandwidth computed from the raw counters the profiler
// reads next to it.
func TestDerivedEquivalenceAcrossTiers(t *testing.T) {
	const interval = 10 * simtime.Millisecond
	opts := node.Options{Seed: 7, DisableNoise: true}
	newLib := func(tb *node.Testbed, src interface {
		pcpcomp.Source
		archive.Fetcher
	}) *papi.Library {
		t.Helper()
		lib := papi.NewLibrary(tb.Clock)
		if err := lib.Register(pcpcomp.New(src)); err != nil {
			t.Fatal(err)
		}
		dcomp, err := node.DerivedComponentOver(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.Register(dcomp); err != nil {
			t.Fatal(err)
		}
		return lib
	}

	// --- Leg 1: live daemon, teed through a Recorder. -------------------
	tb1, err := node.NewTestbed(arch.Summit(), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb1.Close()
	client1, err := pcp.Dial(tb1.PMCDAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client1.Close()
	rec, err := archive.NewRecorderFromUpstream(client1, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := tb1.NestEventNames(node.ViaPCP)
	nraw := len(events)
	events = append(events, "derived:::sum(rate(nest.mba*.read_bytes))")
	live, err := profile.Run(newLib(tb1, rec), events, interval, phases(tb1))
	if err != nil {
		t.Fatal(err)
	}

	// Within the live run: the derived bandwidth must equal the rate
	// computed from the raw read counters sampled beside it. The daemon
	// sampling interval equals the profile interval, so the rate's
	// denominator is exactly one interval.
	var sawTraffic bool
	for i, s := range live.Samples {
		var rawRead uint64
		for c := 0; c < nraw; c += 2 { // events alternate read, write
			rawRead += s.Values[c]
		}
		if rawRead > 0 {
			sawTraffic = true
		}
		want := float64(rawRead) / (float64(interval) / 1e9)
		got := float64(s.Values[nraw])
		if diff := got - want; diff < -2 || diff > 2 {
			t.Errorf("sample %d: derived read bw %v, raw-counter bw %v", i, got, want)
		}
	}
	if !sawTraffic {
		t.Fatal("live profile saw no read traffic; the comparison is vacuous")
	}

	// --- Leg 2: through pmproxy, on an identical twin testbed. ----------
	// Same seed, same phases, noise disabled: the twin's daemon serves
	// bit-identical samples, so the proxied profile must match the live
	// one exactly — derived column included.
	tb2, err := node.NewTestbed(arch.Summit(), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	_, proxyAddr, err := tb2.StartProxy()
	if err != nil {
		t.Fatal(err)
	}
	client2, err := pcp.Dial(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	rec2 := archive.NewRecorder(client2, mustArchive(t, client2))
	proxied, err := profile.Run(newLib(tb2, rec2), events, interval, phases(tb2))
	if err != nil {
		t.Fatal(err)
	}

	// --- Leg 3: replayed from the leg-1 recording. ----------------------
	clock3 := simtime.NewClock()
	replay := archive.NewReplay(rec.Archive(), clock3)
	lib3 := papi.NewLibrary(clock3)
	if err := lib3.Register(pcpcomp.New(replay)); err != nil {
		t.Fatal(err)
	}
	dcomp3, err := node.DerivedComponentOver(replay)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib3.Register(dcomp3); err != nil {
		t.Fatal(err)
	}
	replayed, err := profile.Run(lib3, events, interval, phases(nil))
	if err != nil {
		t.Fatal(err)
	}

	for name, other := range map[string]*profile.Result{"proxied": proxied, "replayed": replayed} {
		if len(other.Samples) != len(live.Samples) {
			t.Fatalf("%s has %d samples, live has %d", name, len(other.Samples), len(live.Samples))
		}
		for i, ls := range live.Samples {
			os := other.Samples[i]
			if os.Time != ls.Time || os.Phase != ls.Phase {
				t.Fatalf("%s sample %d: (%v, %s) vs live (%v, %s)", name, i, os.Time, os.Phase, ls.Time, ls.Phase)
			}
			for c := range ls.Values {
				if os.Values[c] != ls.Values[c] {
					t.Errorf("%s sample %d event %s: %d, live %d", name, i, events[c], os.Values[c], ls.Values[c])
				}
			}
		}
	}
}

// mustArchive builds an archive with the upstream's full schema.
func mustArchive(t *testing.T, src archive.Fetcher) *archive.Archive {
	t.Helper()
	names, err := src.Names()
	if err != nil {
		t.Fatal(err)
	}
	a, err := archive.New(names, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestReplayStepAllocs pins what one panel step allocates over a
// Replay: nothing. The panel is bench's four expressions — raw windows
// of 2 s and 200 ms, windows of 30 s and 600 s on the 1 s and 60 s
// tiers — stepped a second at a time across a 16-column archive whose
// cuts an earlier refresh of the panel parsed, as bench's refreshes
// find them (a block of 8 rows 20 ms apart holds at most one window
// edge, so every cut stays in the ring). The engine fetches through
// the replay's FetchInto into the reply it keeps and every node writes
// into storage it owns, so 16 columns cost what 2 do: zero. A fetch
// reply, result slice, window values or scalar made afresh each step
// would each show here.
func TestReplayStepAllocs(t *testing.T) {
	const (
		cols    = 16
		second  = int64(simtime.Second)
		rowStep = 20 * int64(simtime.Millisecond)
		ceiling = 0
	)
	names := make([]pcp.NameEntry, cols)
	for j := range names {
		names[j] = pcp.NameEntry{PMID: uint32(j + 1), Name: fmt.Sprintf("bench.c%02d", j)}
	}
	a, err := archive.New(names, archive.Options{BlockSamples: 8, Rollups: []int64{second, 60 * second}, RawRetention: 300 * second})
	if err != nil {
		t.Fatal(err)
	}
	row := archive.Sample{Values: make([]uint64, cols)}
	for i := int64(0); i*rowStep <= 760*second; i++ {
		row.Timestamp = i * rowStep
		for j := range row.Values {
			row.Values[j] = uint64(i) * 64 * uint64(j+1)
		}
		if err := a.AppendSample(row); err != nil {
			t.Fatal(err)
		}
	}
	a.Compact()
	// newPanel binds the four expressions on a fresh engine and replay
	// and returns one step of the panel. Column j climbs 64(j+1) a row,
	// 50 rows a second.
	newPanel := func(glob string, width int) func() {
		clock := simtime.NewClock()
		e := metricql.NewEngine(archive.NewReplay(a, clock))
		var qs []*metricql.Query
		for _, expr := range []string{
			"sum(rate_over(" + glob + ", 2s))",
			"avg_over(bench.c03, 600s)",
			"max_over(bench.c07, 30s)",
			"rate_over(bench.c01, 200ms)",
		} {
			q, err := e.Query(expr)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		wantSum := float64(64*50*width*(width+1)) / 2
		now := 620 * second
		return func() {
			now += second
			clock.AdvanceTo(simtime.Time(now))
			vs, err := e.EvalAll(qs...)
			if err != nil {
				t.Fatal(err)
			}
			if got := vs[0].Vals[0]; math.Abs(got-wantSum) > 1e-9*wantSum {
				t.Fatalf("%s at %d: sum of rates = %v, want %v", glob, now, got, wantSum)
			}
		}
	}
	warm := newPanel("bench.c*", cols)
	for i := 0; i < 101; i++ { // AllocsPerRun's warm-up call and its 100 runs
		warm()
	}
	counts := map[string]float64{
		"bench.c*":     testing.AllocsPerRun(100, newPanel("bench.c*", cols)),
		"bench.c0[01]": testing.AllocsPerRun(100, newPanel("bench.c0[01]", 2)),
	}
	if counts["bench.c*"] != counts["bench.c0[01]"] || counts["bench.c*"] > ceiling {
		t.Errorf("a panel step allocates %v times over 16 columns and %v over 2, want the same and at most %d",
			counts["bench.c*"], counts["bench.c0[01]"], ceiling)
	}
}
