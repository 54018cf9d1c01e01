package chaos

import (
	"strings"
	"testing"

	"papimc/internal/leakcheck"
)

// TestClusterProfiles drives a small tree through every named profile.
// Each trial's invariants (missing set == victim set, certified values,
// surviving groups, edge conservation laws) are checked inside
// runClusterTrial; any violation fails here with the repro line.
func TestClusterProfiles(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	for _, name := range Names(ClusterProfiles) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := ClusterOptions{
				Seed:    0x5EED,
				Trials:  2,
				Queries: 3,
				Nodes:   16,
				FanOut:  4,
				Profile: ClusterProfiles[name],
				Trial:   -1,
			}
			rep, err := RunCluster(o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Fatalf("profile %s violated invariants:\n%s\nrepro: %s",
					name, rep, ClusterReproLine(o, rep.Trials[0].Index))
			}
		})
	}
}

// TestClusterAcceptance is the issue's acceptance scenario as a chaos
// trial: a 64-node, 3-level tree with 3 nodes killed mid-stream still
// answers sum(mem.read_bw) by (node), names exactly the missing nodes,
// and the whole report is byte-reproducible from the seed — including
// across worker counts, which proves no timing-dependent state leaks
// into the results.
func TestClusterAcceptance(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	o := ClusterOptions{
		Seed:    0xC10C,
		Trials:  3,
		Queries: 4,
		Nodes:   64,
		FanOut:  4,
		Profile: ClusterProfile{Kill: 3, Flap: true},
		Trial:   -1,
	}
	rep, err := RunCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("acceptance run violated invariants:\n%s", rep)
	}
	for _, tr := range rep.Trials {
		if tr.Depth != 3 {
			t.Errorf("trial %d: depth %d, want 3", tr.Index, tr.Depth)
		}
		if tr.Partials != tr.Queries {
			t.Errorf("trial %d: %d/%d queries partial; every query had 3 nodes down", tr.Index, tr.Partials, tr.Queries)
		}
		if len(tr.Missing) != 3 {
			t.Errorf("trial %d: missing=%v, want exactly 3 nodes", tr.Index, tr.Missing)
		}
	}

	// Byte-reproducible: same seed, different worker counts, identical
	// report text.
	first := rep.String()
	for _, workers := range []int{1, 4} {
		o2 := o
		o2.Workers = workers
		rep2, err := RunCluster(o2)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep2.String(); got != first {
			t.Errorf("workers=%d report diverged:\n--- first\n%s--- again\n%s", workers, first, got)
		}
	}
	if !strings.Contains(first, "missing=[node") {
		t.Errorf("report does not name missing nodes:\n%s", first)
	}
}

// TestClusterSingleTrialReplay checks that -trial replay reproduces the
// same trial the full sweep produced.
func TestClusterSingleTrialReplay(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	o := ClusterOptions{
		Seed:    0xD1CE,
		Trials:  3,
		Queries: 2,
		Nodes:   16,
		FanOut:  4,
		Profile: ClusterProfiles["mixed"],
		Trial:   -1,
	}
	full, err := RunCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Trial = 2
	one, err := RunCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Trials) != 1 {
		t.Fatalf("replay returned %d trials", len(one.Trials))
	}
	wantRep := (&Report[ClusterTrial]{Trials: full.Trials[2:3]}).String()
	if got := one.String(); got != wantRep {
		t.Errorf("replayed trial diverged:\n--- sweep\n%s--- replay\n%s", wantRep, got)
	}
}
