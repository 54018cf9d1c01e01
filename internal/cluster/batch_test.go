package cluster

import (
	"errors"
	"reflect"
	"testing"

	"papimc/internal/pcp"
)

// TestFederatorFetchBatchPartial: a batch scatter-gathers all its sets
// in one pass and lifts Fetch's partial semantics to the batch — down
// subtrees answer StatusNodeDown per value, the single PartialError
// names the union of missing nodes, every set shares the scatter's
// merged timestamp, and each set's values match what a lone Fetch of
// that set returns.
func TestFederatorFetchBatchPartial(t *testing.T) {
	tr, err := Assemble(Config{Nodes: 16, FanOut: 4, Seed: 9, Interval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Clock.Advance(testInterval + 1)

	names, _ := tr.Root.Names()
	pmidOn := func(node string) uint32 { // first PMID owned by the node
		for _, e := range names {
			if len(e.Name) > len(node) && e.Name[:len(node)] == node && e.Name[len(node)] == ':' {
				return e.PMID
			}
		}
		t.Fatalf("no metric qualified by %s", node)
		return 0
	}

	victims := []string{"node003", "node007"}
	for _, v := range victims {
		tr.Node(v).Kill()
	}
	// Each intermediate federator keeps one live routed node: a subtree
	// asked ONLY for dead-node pmids fails hard, and the parent then
	// conservatively reports that whole subtree missing.
	sets := [][]uint32{
		{pmidOn("node000"), pmidOn("node003")}, // one live, one down (l1.f0)
		{pmidOn("node004"), pmidOn("node007")}, // one live, one down (l1.f1)
		{pmidOn("node001"), pmidOn("node002")}, // all live
		{1, 9999},                              // unknown PMID rides along
	}
	results, err := tr.Root.FetchBatch(sets)
	var pe *pcp.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *pcp.PartialError, got %v", err)
	}
	if !reflect.DeepEqual(pe.Missing, victims) {
		t.Errorf("missing = %v, want %v", pe.Missing, victims)
	}
	if len(results) != len(sets) {
		t.Fatalf("%d results for %d sets", len(results), len(sets))
	}
	for si, res := range results {
		if res.Timestamp != results[0].Timestamp {
			t.Errorf("set %d timestamp %d differs from set 0's %d — one scatter, one time",
				si, res.Timestamp, results[0].Timestamp)
		}
		if len(res.Values) != len(sets[si]) {
			t.Fatalf("set %d: %d values for %d pmids", si, len(res.Values), len(sets[si]))
		}
		for j, v := range res.Values {
			if v.PMID != sets[si][j] {
				t.Errorf("set %d value %d echoes pmid %d, want %d", si, j, v.PMID, sets[si][j])
			}
		}
	}
	if got := results[0].Values[1].Status; got != pcp.StatusNodeDown {
		t.Errorf("victim-owned value status = %d, want StatusNodeDown", got)
	}
	if got := results[1].Values[1].Status; got != pcp.StatusNodeDown {
		t.Errorf("victim-owned value status = %d, want StatusNodeDown", got)
	}
	if got := results[1].Values[0].Status; got != pcp.StatusOK {
		t.Errorf("live value in a partially-down set = %d, want StatusOK", got)
	}
	if got := results[3].Values[1].Status; got != pcp.StatusNoSuchPMID {
		t.Errorf("unknown pmid status = %d, want StatusNoSuchPMID", got)
	}

	// Per-set parity with single fetches (clock held still, so the
	// scatter answers are identical).
	for si, set := range sets {
		single, err := tr.Root.Fetch(set)
		if err != nil && !errors.As(err, &pe) {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single.Values, results[si].Values) {
			t.Errorf("set %d: single fetch values differ from batch:\nsingle: %+v\nbatch:  %+v",
				si, single.Values, results[si].Values)
		}
	}
}
