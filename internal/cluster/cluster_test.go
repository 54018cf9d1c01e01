package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"papimc/internal/metricql"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
	"papimc/internal/sweep"
)

const testInterval = 10 * simtime.Millisecond

func TestNodeMetricModel(t *testing.T) {
	// Channel counts vary with the seed but stay in the documented set.
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		ch := NodeChannels(sweep.Seed(1, i))
		if ch != 4 && ch != 6 && ch != 8 {
			t.Fatalf("NodeChannels out of range: %d", ch)
		}
		seen[ch] = true
	}
	if len(seen) < 2 {
		t.Error("64 seeds produced a homogeneous cluster; arch variation is broken")
	}

	names := MetricNames(7)
	if !sort.StringsAreSorted(names) {
		t.Errorf("MetricNames not sorted: %v", names)
	}
	if len(names) != 4+NodeChannels(7) {
		t.Errorf("MetricNames has %d entries, want %d", len(names), 4+NodeChannels(7))
	}

	// A node daemon's served values certify against MetricValue.
	clock := simtime.NewClock()
	n, err := NewNode("node000", 7, clock, testInterval)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Daemon.Close()
	clock.Advance(testInterval + 1)
	res, err := n.Source().Fetch([]uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Values {
		if v.Status != pcp.StatusOK || v.Value != MetricValue(7, v.PMID, res.Timestamp) {
			t.Errorf("node value does not certify: %+v", v)
		}
	}
}

func TestNodeGate(t *testing.T) {
	clock := simtime.NewClock()
	n, err := NewNode("node000", 3, clock, testInterval)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Daemon.Close()
	src := n.Source()
	if _, err := src.Fetch([]uint32{1}); err != nil {
		t.Fatalf("healthy fetch: %v", err)
	}
	n.Kill()
	if _, err := src.Fetch([]uint32{1}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("killed node fetch: %v", err)
	}
	if n.state.Load() == nodeUp {
		t.Error("node still up after Kill")
	}
	n.Restore()
	if _, err := src.Fetch([]uint32{1}); err != nil {
		t.Fatalf("restored fetch: %v", err)
	}
	n.Stall(time.Millisecond)
	start := time.Now()
	if _, err := src.Fetch([]uint32{1}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("stalled node fetch: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Error("stalled fetch returned before the stall elapsed")
	}
}

func TestFederatorNamespaceAndFetch(t *testing.T) {
	tr, err := Assemble(Config{Nodes: 4, FanOut: 2, Seed: 42, Interval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Depth() != 2 { // 2 leaves + root
		t.Errorf("Depth() = %d, want 2", tr.Depth())
	}

	names, err := tr.Root.Names()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 0
	for _, n := range tr.Nodes {
		wantLen += len(MetricNames(n.Seed))
	}
	if len(names) != wantLen {
		t.Fatalf("root namespace has %d entries, want %d", len(names), wantLen)
	}
	for i, en := range names {
		if en.PMID != uint32(i+1) {
			t.Fatalf("root PMIDs not dense: entry %d is %+v", i, en)
		}
		if !strings.Contains(en.Name, ":") {
			t.Fatalf("unqualified root metric %q", en.Name)
		}
		if i > 0 && names[i-1].Name >= en.Name {
			t.Fatalf("root namespace not sorted at %d: %q >= %q", i, names[i-1].Name, en.Name)
		}
	}

	// A scatter-gather fetch of a scattered subset answers in request
	// order with certified values.
	tr.Clock.Advance(testInterval + 1)
	ids := []uint32{uint32(len(names)), 1, uint32(len(names) / 2)}
	res, err := tr.Root.Fetch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != len(ids) {
		t.Fatalf("got %d values for %d pmids", len(res.Values), len(ids))
	}
	for i, v := range res.Values {
		if v.PMID != ids[i] {
			t.Errorf("value %d has PMID %d, want %d (request order broken)", i, v.PMID, ids[i])
		}
	}
	if err := tr.Certify(res, int64(tr.Clock.Now())); err != nil {
		t.Error(err)
	}

	// Unknown PMIDs answer StatusNoSuchPMID without failing the query.
	res, err = tr.Root.Fetch([]uint32{1, 9999})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[1].Status != pcp.StatusNoSuchPMID {
		t.Errorf("unknown pmid status = %d", res.Values[1].Status)
	}
}

func TestPartialResultNamesExactlyTheMissing(t *testing.T) {
	tr, err := Assemble(Config{Nodes: 16, FanOut: 4, Seed: 9, Interval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	victims := []string{"node003", "node007", "node012"}
	for _, v := range victims {
		tr.Node(v).Kill()
	}
	res, err := tr.Snapshot()
	var pe *pcp.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *pcp.PartialError, got %v", err)
	}
	if !reflect.DeepEqual(pe.Missing, victims) {
		t.Errorf("missing = %v, want %v", pe.Missing, victims)
	}

	// Every value owned by a victim is StatusNodeDown; every other value
	// is present (Certify already proved the survivors' values).
	downNodes := make(map[string]bool)
	for _, v := range victims {
		downNodes[v] = true
	}
	names, _ := tr.Root.Names()
	for i, v := range res.Values {
		node, _, _ := strings.Cut(names[i].Name, ":")
		if downNodes[node] != (v.Status == pcp.StatusNodeDown) {
			t.Errorf("%s: status %d does not match down-set", names[i].Name, v.Status)
		}
	}

	// Recovery: the next snapshot is whole again.
	for _, v := range victims {
		tr.Node(v).Restore()
	}
	if _, err := tr.Snapshot(); err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
}

func TestWholeSubtreeDown(t *testing.T) {
	tr, err := Assemble(Config{Nodes: 8, FanOut: 2, Seed: 5, Interval: testInterval, Policy: pmproxy.EdgePolicy{Retries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Kill both nodes of one leaf federator: the leaf fails outright,
	// its parent converts the dead edge into the pair of missing nodes.
	tr.Node("node000").Kill()
	tr.Node("node001").Kill()
	_, err = tr.Snapshot()
	var pe *pcp.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("expected partial error, got %v", err)
	}
	if !reflect.DeepEqual(pe.Missing, []string{"node000", "node001"}) {
		t.Errorf("missing = %v", pe.Missing)
	}
}

func TestStalledZoneMissesDeadline(t *testing.T) {
	tr, err := Assemble(Config{
		Nodes: 8, FanOut: 2, Seed: 11, Interval: testInterval,
		Policy: pmproxy.EdgePolicy{Deadline: 25 * time.Millisecond, HedgeAfter: 5 * time.Millisecond, Retries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tr.Node("node005").Stall(500 * time.Millisecond)
	_, err = tr.Snapshot()
	var pe *pcp.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("expected partial error, got %v", err)
	}
	if !reflect.DeepEqual(pe.Missing, []string{"node005"}) {
		t.Errorf("missing = %v, want [node005]", pe.Missing)
	}
	// The stalled edge burned its deadline on every round.
	var stalledEdge pmproxy.UpstreamStats
	for _, es := range tr.EdgeStats() {
		if strings.HasSuffix(es.Edge, "->node005") {
			stalledEdge = es.Stats
		}
	}
	if stalledEdge.DeadlineMisses == 0 || stalledEdge.Failures != 1 {
		t.Errorf("stalled edge stats: %+v", stalledEdge)
	}
}

func checkEdgeLaws(t *testing.T, tr *Tree) {
	t.Helper()
	for _, es := range tr.EdgeStats() {
		s := es.Stats
		if s.Fetches != s.Successes+s.Failures {
			t.Errorf("%s: Fetches=%d != Successes=%d + Failures=%d", es.Edge, s.Fetches, s.Successes, s.Failures)
		}
		if s.Errors != s.Retries+s.Failures {
			t.Errorf("%s: Errors=%d != Retries=%d + Failures=%d", es.Edge, s.Errors, s.Retries, s.Failures)
		}
		if s.HedgesWon > s.Hedges {
			t.Errorf("%s: HedgesWon=%d > Hedges=%d", es.Edge, s.HedgesWon, s.Hedges)
		}
		if s.DeadlineMisses > s.Errors {
			t.Errorf("%s: DeadlineMisses=%d > Errors=%d", es.Edge, s.DeadlineMisses, s.Errors)
		}
	}
}

// TestAcceptance64Nodes is the issue's acceptance scenario: a 3-level
// tree over 64 nodes, 3 nodes down, one scatter-gather query answering
// with exactly the missing nodes named, deterministically reproducible,
// plus a consistent snapshot at one virtual timestamp.
func TestAcceptance64Nodes(t *testing.T) {
	run := func() (missing []string, groups metricql.Value, ts int64) {
		tr, err := Assemble(Config{Nodes: 64, FanOut: 4, Seed: 0xC10C, Interval: testInterval,
			Policy: pmproxy.EdgePolicy{Retries: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if tr.Depth() != 3 {
			t.Fatalf("64-node FanOut-4 tree has depth %d, want 3", tr.Depth())
		}

		for _, v := range []string{"node013", "node037", "node061"} {
			tr.Node(v).Kill()
		}

		// Consistent snapshot first: every surviving value certifies at
		// one virtual timestamp.
		res, err := tr.Snapshot()
		var pe *pcp.PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("snapshot: %v", err)
		}
		ts = res.Timestamp

		// The federated query: sum(mem.read_bw) by (node) over the root.
		eng := metricql.NewEngine(tr.Root)
		q, err := eng.Query("sum(mem.read_bw) by (node)")
		if err != nil {
			t.Fatal(err)
		}
		v, err := q.Eval()
		if !errors.As(err, &pe) {
			t.Fatalf("query did not surface the partial error: %v", err)
		}
		checkEdgeLaws(t, tr)
		return pe.Missing, v, ts
	}

	missing, v, ts := run()
	if !reflect.DeepEqual(missing, []string{"node013", "node037", "node061"}) {
		t.Fatalf("missing = %v", missing)
	}
	if len(v.Names) != 61 {
		t.Fatalf("grouped answer has %d nodes, want 61", len(v.Names))
	}
	for i, name := range v.Names {
		if name == "node013" || name == "node037" || name == "node061" {
			t.Errorf("down node %s present in the answer", name)
		}
		// One mem.read_bw per node: the group sum is that single
		// certified value.
		idx := 0
		fmt.Sscanf(name, "node%d", &idx)
		seed := sweep.Seed(0xC10C, idx)
		pmid := uint32(0)
		for j, mn := range MetricNames(seed) {
			if mn == "mem.read_bw" {
				pmid = uint32(j + 1)
			}
		}
		if want := float64(MetricValue(seed, pmid, ts)); v.Vals[i] != want {
			t.Errorf("%s: group value %v, want %v", name, v.Vals[i], want)
		}
	}

	// Byte-for-byte reproducible: a second identical cluster answers
	// identically.
	missing2, v2, ts2 := run()
	if !reflect.DeepEqual(missing2, missing) || !reflect.DeepEqual(v2, v) || ts2 != ts {
		t.Error("identical seed did not reproduce the identical answer")
	}
}

func TestNetModeTree(t *testing.T) {
	tr, err := Assemble(Config{Nodes: 8, FanOut: 2, Seed: 77, Interval: testInterval, Net: true,
		Policy: pmproxy.EdgePolicy{Retries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", tr.Depth())
	}
	if _, err := tr.Snapshot(); err != nil {
		t.Fatalf("net-mode snapshot: %v", err)
	}

	// A killed node's absence travels the wire as PDUFetchPartialResp
	// through two federator hops.
	tr.Node("node004").Kill()
	_, err = tr.Snapshot()
	var pe *pcp.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("expected partial error over TCP, got %v", err)
	}
	if !reflect.DeepEqual(pe.Missing, []string{"node004"}) {
		t.Errorf("missing = %v", pe.Missing)
	}
}

func BenchmarkRootFetchAll(b *testing.B) {
	for _, nodes := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			tr, err := Assemble(Config{Nodes: nodes, FanOut: 8, Seed: 1, Interval: testInterval})
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			tr.Clock.Advance(testInterval + 1)
			if _, err := tr.Root.FetchAll(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Root.FetchAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
