package chaos

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"papimc/internal/faultconn"
	"papimc/internal/leakcheck"
	"papimc/internal/pcp"
	"papimc/internal/testutil"
)

// opts is the suite's base configuration: small enough to run under
// -race in CI, large enough that every profile fires real faults.
func opts(profile string) Options {
	return Options{
		Seed:     0xC4A05,
		Trials:   4,
		Ops:      30,
		Schedule: Profiles[profile],
		Trial:    -1,
	}
}

func TestCleanScheduleNoViolations(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	rep, err := Run(opts("clean"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("clean run failed:\n%s", rep)
	}
	for _, tr := range rep.Trials {
		if tr.FetchErrs != 0 || tr.NameErrs != 0 || tr.Stale != 0 || tr.Inconsist != 0 {
			t.Errorf("trial %d saw failures with no faults injected: %+v", tr.Index, tr)
		}
		if tr.Records == 0 {
			t.Errorf("trial %d recorded nothing", tr.Index)
		}
		f := tr.Faults
		f.Conns = 0 // connections are counted even when nothing fires
		if f != (faultconn.Stats{}) {
			t.Errorf("trial %d fired faults on an empty schedule: %s", tr.Index, tr.Faults)
		}
	}
}

// TestProfilesHoldInvariants is the core property test: under every
// fault profile the serving contract holds — correct coalesced answers,
// declared-stale answers, or clean errors; exact stats accounting; no
// partial archive rows.
func TestProfilesHoldInvariants(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	for _, name := range Names(Profiles) {
		if name == "clean" {
			continue // covered above
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := opts(name)
			rep, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				for _, tr := range rep.Trials {
					if len(tr.Violations) > 0 {
						t.Errorf("repro: %s", ReproLine(o, tr.Index))
					}
				}
				t.Fatalf("invariant violations under %q:\n%s", name, rep)
			}
			// The profile must actually exercise something, or the pass
			// is vacuous.
			activity := 0
			for _, tr := range rep.Trials {
				f := tr.Faults
				activity += f.Refusals + f.Resets + f.Stalls + f.Corrupts + f.Latencies
				if name == "chunked" {
					activity++ // chunking is always-on, not a counted fault
				}
			}
			if activity == 0 {
				t.Fatalf("profile %q fired no faults across %d trials — vacuous pass", name, len(rep.Trials))
			}
		})
	}
}

// TestDeterministicAcrossRunsAndWorkers: a fixed seed reproduces the
// byte-identical report — same fault trace, same stats, same verdict —
// across repeated runs and across worker counts.
func TestDeterministicAcrossRunsAndWorkers(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	base := opts("mixed")
	run := func(workers int) string {
		o := base
		o.Workers = workers
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	seq := run(1)
	if again := run(1); again != seq {
		t.Fatalf("same seed, same workers, different report:\n--- a\n%s--- b\n%s", seq, again)
	}
	if par := run(4); par != seq {
		t.Fatalf("report differs across worker counts:\n--- workers=1\n%s--- workers=4\n%s", seq, par)
	}
	if strings.Count(seq, "trial") < base.Trials {
		t.Fatalf("report missing trials:\n%s", seq)
	}
}

// TestBreakStaleDetected: deliberately breaking stale serving (answers
// re-stamped to now) must fail the suite with a torn-value violation and
// a usable repro line — the suite's own smoke detector.
func TestBreakStaleDetected(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	o := opts("flaky") // resets + refused redials reliably force stale serves
	o.Trials = 6

	honest, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if honest.Failed() {
		t.Fatalf("honest stale serving must pass:\n%s", honest)
	}
	staleSeen := 0
	for _, tr := range honest.Trials {
		staleSeen += tr.Stale
	}
	if staleSeen == 0 {
		t.Fatal("no stale serves occurred — the BreakStale check below would be vacuous")
	}

	o.BreakStale = true
	broken, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !broken.Failed() {
		t.Fatalf("re-stamped stale serving not detected:\n%s", broken)
	}
	found := false
	for _, tr := range broken.Trials {
		for _, v := range tr.Violations {
			if strings.Contains(v, "torn/corrupt value") {
				found = true
			}
		}
		if len(tr.Violations) > 0 {
			line := ReproLine(o, tr.Index)
			for _, want := range []string{"go run ./cmd/chaos", "-seed", "-trial ", "-break-stale"} {
				if !strings.Contains(line, want) {
					t.Errorf("repro line %q missing %q", line, want)
				}
			}
		}
	}
	if !found {
		t.Fatalf("violations did not identify the torn value:\n%s", broken)
	}
}

// TestSingleTrialReplayMatches: replaying one trial by index (the repro
// path) reproduces exactly the trial from the full sweep.
func TestSingleTrialReplayMatches(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	o := opts("resets")
	full, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Trial = 2
	replay, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Trials) != 1 {
		t.Fatalf("replay ran %d trials, want 1", len(replay.Trials))
	}
	want := full.Trials[2]
	got := replay.Trials[0]
	wantRep := (&Report[Trial]{Trials: []Trial{want}}).String()
	gotRep := (&Report[Trial]{Trials: []Trial{got}}).String()
	if gotRep != wantRep {
		t.Fatalf("replayed trial differs from sweep:\n--- sweep\n%s--- replay\n%s", wantRep, gotRep)
	}
}

// TestClientDeadlineUnderStall: a client whose round trips carry a
// deadline observes a timeout within bounds when the stream silently
// stalls — the deadline path fires, the call does not hang.
func TestClientDeadlineUnderStall(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	_, addr := testutil.StartSyntheticDaemon(t, 4)
	inj := faultconn.New(1, faultconn.Schedule{
		// Stall the response stream mid-PDU, after the 4-byte handshake
		// echo and the reply's first bytes.
		Exact:    []faultconn.Fault{{Conn: 0, Dir: faultconn.Read, Off: 7, Kind: faultconn.Stall}},
		MaxStall: 10 * time.Second, // the client deadline must win
	})
	raw, err := inj.Dial(func() (net.Conn, error) { return net.Dial("tcp", addr) })()
	if err != nil {
		t.Fatal(err)
	}
	// Version1: keeps read offset 7 inside the fetch response (the
	// version exchange would otherwise consume it) and exercises the
	// lockstep whole-connection deadline; the pipelined per-request
	// deadline has its own stall test.
	c, err := pcp.NewClientConnMax(raw, pcp.Version1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const deadline = 100 * time.Millisecond
	c.SetTimeout(deadline)
	start := time.Now()
	_, err = c.Fetch([]uint32{1, 2})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch succeeded through a stalled stream")
	}
	var nerr net.Error
	if !errors.Is(err, os.ErrDeadlineExceeded) && !(errors.As(err, &nerr) && nerr.Timeout()) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed < deadline/2 || elapsed > 10*deadline {
		t.Fatalf("deadline fired after %v, want ~%v", elapsed, deadline)
	}
	if st := inj.Stats(); st.Stalls != 1 {
		t.Fatalf("injector stats = %s, want exactly one stall", st)
	}
}

// TestRecorderSurvivesExactMidWriteReset: a reset pinned mid-PDU on the
// proxy's upstream write path must not leave a partial archive row.
func TestRecorderSurvivesExactMidWriteReset(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	// Connection setup is 13 bytes each way (the 4-byte magic, then the
	// 9-byte version request or response), so both offsets land inside
	// the first tagged PDU after it.
	const setup = 4 + 5 + 4
	o := Options{
		Seed:   7,
		Trials: 1,
		Ops:    25,
		Trial:  -1,
		Schedule: faultconn.Schedule{Exact: []faultconn.Fault{
			{Conn: 0, Dir: faultconn.Write, Off: setup + 6, Kind: faultconn.Reset}, // mid-request header
			{Conn: 1, Dir: faultconn.Read, Off: setup + 27, Kind: faultconn.Reset}, // mid-response
		}},
	}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("mid-PDU resets broke an invariant:\n%s", rep)
	}
	tr := rep.Trials[0]
	if tr.Faults.Resets != 2 {
		t.Fatalf("fired %d resets, want 2 (%s)", tr.Faults.Resets, tr.Faults)
	}
	if tr.Records == 0 {
		t.Fatal("nothing recorded after resets — recorder never recovered")
	}
}
