package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
)

// shortSource drops the last value of every answer while short is set:
// a child that violates the one-value-per-PMID contract.
type shortSource struct {
	Source
	short atomic.Bool
}

func (s *shortSource) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	res, err := s.Source.Fetch(pmids)
	var pe *pcp.PartialError
	if s.short.Load() && (err == nil || errors.As(err, &pe)) && len(res.Values) > 0 {
		res.Values = res.Values[:len(res.Values)-1]
	}
	return res, err
}

// scatterCase is one row of the seeded table: the sets of one batch,
// the nodes killed and the root children that answer short.
type scatterCase struct {
	sets   [][]uint32
	killed []string
	short  []bool
}

// TestScatterMergeBruteForce checks the counted routing and the cursor
// merge of FetchBatch against a brute-force model of the tree, over a
// seeded table of batches with duplicate PMIDs within and across sets,
// PMID 0, out-of-range PMIDs, empty sets, killed nodes, whole leaf
// subtrees down and root children that answer short — in-process and
// with every interior edge over TCP.
func TestScatterMergeBruteForce(t *testing.T) {
	for _, net := range []bool{false, true} {
		t.Run(fmt.Sprintf("net=%v", net), func(t *testing.T) {
			tr, err := Assemble(Config{Nodes: 16, FanOut: 4, Seed: 9, Interval: testInterval, Net: net})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			// The root's children again, each behind a shortSource, under a
			// federator with the root's namespace.
			children := append([]Child(nil), tr.Root.children...)
			shorts := make([]*shortSource, len(children))
			for i := range children {
				shorts[i] = &shortSource{Source: children[i].Src}
				children[i].Src = shorts[i]
			}
			f, err := NewFederator("scatter", children, pmproxy.EdgePolicy{})
			if err != nil {
				t.Fatal(err)
			}
			cases := scatterTable(f, 40, uint64(len(children)))
			if net {
				cases = cases[:16]
			}
			for ci, sc := range cases {
				for i, s := range shorts {
					s.short.Store(sc.short[i])
				}
				for _, nd := range sc.killed {
					tr.Node(nd).Kill()
				}
				tr.Clock.Advance(testInterval + 1)
				checkScatterCase(t, tr, f, ci, sc)
				for _, nd := range sc.killed {
					tr.Node(nd).Restore()
				}
			}
		})
	}
}

// scatterTable draws n cases over f's namespace after four fixed ones:
// nothing routed, an empty set beside a real one, every node dead, and
// a whole leaf subtree dead plus a short child.
func scatterTable(f *Federator, n int, seed uint64) []scatterCase {
	top := uint32(len(f.route))
	none := make([]bool, len(f.children))
	cases := []scatterCase{
		{sets: [][]uint32{{}, {0, top + 1}}, short: none},
		{sets: [][]uint32{{}, {1, 1, top}}, short: none},
		{sets: [][]uint32{{1, top}, {top / 2}}, killed: f.nodes, short: none},
		{sets: [][]uint32{{1, 2, top, top - 1}, {top / 2, 1}}, killed: f.children[0].Nodes,
			short: append([]bool{false, true}, none[2:]...)},
	}
	rng := rand.New(rand.NewPCG(seed, 30))
	for len(cases) < n {
		sc := scatterCase{short: make([]bool, len(f.children))}
		var drawn []uint32
		for range 1 + rng.IntN(4) {
			set := []uint32{}
			for range rng.IntN(24) {
				var id uint32
				switch r := rng.IntN(20); {
				case r == 0:
					id = 0
				case r == 1:
					id = top + 1 + uint32(rng.IntN(50))
				case r < 5 && len(drawn) > 0:
					id = drawn[rng.IntN(len(drawn))] // a duplicate, in this set or another
				default:
					id = 1 + uint32(rng.IntN(int(top)))
				}
				drawn = append(drawn, id)
				set = append(set, id)
			}
			sc.sets = append(sc.sets, set)
		}
		switch rng.IntN(4) {
		case 1:
			for range 1 + rng.IntN(3) {
				sc.killed = append(sc.killed, f.nodes[rng.IntN(len(f.nodes))])
			}
		case 2:
			sc.killed = f.children[rng.IntN(len(f.children))].Nodes
		case 3:
			sc.killed = append([]string{f.nodes[rng.IntN(len(f.nodes))]}, f.children[rng.IntN(len(f.children))].Nodes...)
		}
		for i := range sc.short {
			sc.short[i] = rng.IntN(6) == 0
		}
		cases = append(cases, sc)
	}
	return cases
}

// checkScatterCase runs one batch and compares it with the model: a
// root child is down if it answers short or if every node it was asked
// about is dead (the leaf federator then fails outright and the whole
// subtree is missing); otherwise only its dead asked-about nodes are
// missing. Every set must also equal a lone Fetch of it.
func checkScatterCase(t *testing.T, tr *Tree, f *Federator, ci int, sc scatterCase) {
	t.Helper()
	ts := int64(tr.Clock.Now())
	dead := make(map[string]bool)
	for _, nd := range sc.killed {
		dead[nd] = true
	}
	nodeOf := func(id uint32) string {
		node, _, _ := strings.Cut(f.names[id-1].Name, ":")
		return node
	}
	asked := make([]map[string]bool, len(f.children))
	for _, set := range sc.sets {
		for _, id := range set {
			if f.owns(id) {
				c := f.route[id-1].child
				if asked[c] == nil {
					asked[c] = make(map[string]bool)
				}
				asked[c][nodeOf(id)] = true
			}
		}
	}
	down := make([]bool, len(f.children))
	missingSet := make(map[string]bool)
	answered := false
	for c, nodes := range asked {
		if nodes == nil {
			continue
		}
		allDead := true
		for nd := range nodes {
			allDead = allDead && dead[nd]
		}
		if down[c] = sc.short[c] || allDead; down[c] {
			for _, nd := range f.children[c].Nodes {
				missingSet[nd] = true
			}
			continue
		}
		answered = true
		for nd := range nodes {
			if dead[nd] {
				missingSet[nd] = true
			}
		}
	}
	var wantMissing []string
	for nd := range missingSet {
		wantMissing = append(wantMissing, nd)
	}
	sort.Strings(wantMissing)

	results, err := f.FetchBatch(sc.sets)
	if !answered && len(wantMissing) > 0 {
		if err == nil || errors.As(err, new(*pcp.PartialError)) {
			t.Fatalf("case %d: every asked child down, got %v, want a hard error", ci, err)
		}
		return
	}
	var pe *pcp.PartialError
	switch {
	case len(wantMissing) == 0 && err != nil:
		t.Fatalf("case %d: unexpected error %v", ci, err)
	case len(wantMissing) > 0 && !errors.As(err, &pe):
		t.Fatalf("case %d: got %v, want a partial error naming %v", ci, err, wantMissing)
	case pe != nil && !reflect.DeepEqual(pe.Missing, wantMissing):
		t.Errorf("case %d: missing %v, want %v", ci, pe.Missing, wantMissing)
	}
	if len(results) != len(sc.sets) {
		t.Fatalf("case %d: %d results for %d sets", ci, len(results), len(sc.sets))
	}
	wantTS := int64(0)
	if answered {
		wantTS = ts
	}
	for si, set := range sc.sets {
		res := results[si]
		if res.Timestamp != wantTS {
			t.Errorf("case %d set %d: timestamp %d, want %d", ci, si, res.Timestamp, wantTS)
		}
		if len(res.Values) != len(set) {
			t.Fatalf("case %d set %d: %d values for %d pmids", ci, si, len(res.Values), len(set))
		}
		for j, id := range set {
			want := pcp.FetchValue{PMID: id, Status: pcp.StatusNoSuchPMID}
			if f.owns(id) {
				want.Status = pcp.StatusNodeDown
				if !down[f.route[id-1].child] && !dead[nodeOf(id)] {
					e := tr.expect[id]
					want = pcp.FetchValue{PMID: id, Status: pcp.StatusOK, Value: MetricValue(e.seed, e.pmid, ts)}
				}
			}
			if res.Values[j] != want {
				t.Errorf("case %d set %d value %d: %+v, want %+v", ci, si, j, res.Values[j], want)
			}
		}

		lone, err := f.Fetch(set)
		if err != nil && !errors.As(err, new(*pcp.PartialError)) {
			// Every child this set reaches is down: no value may be OK.
			for j, v := range res.Values {
				if v.Status == pcp.StatusOK {
					t.Errorf("case %d set %d value %d: OK in the batch, but a lone fetch fails: %v", ci, si, j, err)
				}
			}
			continue
		}
		if !reflect.DeepEqual(lone.Values, res.Values) {
			t.Errorf("case %d set %d: lone fetch differs from the batch:\nlone:  %+v\nbatch: %+v", ci, si, lone.Values, res.Values)
		}
	}
}

// TestScatterAllocs pins what a scatter allocates: per edge and per
// call, never per PMID. An in-process root fetch of the whole
// namespace allocates exactly as often as a fetch of one PMID per node,
// which reaches the same children, and both stay under a fixed ceiling.
func TestScatterAllocs(t *testing.T) {
	tr, err := Assemble(Config{Nodes: 16, FanOut: 4, Seed: 1, Interval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Clock.Advance(testInterval + 1)
	wide := make([]uint32, len(tr.Root.route))
	for i := range wide {
		wide[i] = uint32(i + 1)
	}
	var narrow []uint32
	seen := make(map[string]bool)
	for _, en := range tr.Root.names {
		if node, _, _ := strings.Cut(en.Name, ":"); !seen[node] {
			seen[node] = true
			narrow = append(narrow, en.PMID)
		}
	}
	allocs := func(pmids []uint32) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := tr.Root.Fetch(pmids); err != nil {
				t.Fatal(err)
			}
		})
	}
	w, n := allocs(wide), allocs(narrow)
	t.Logf("%d-PMID fetch: %.0f allocs, %d-PMID fetch: %.0f allocs", len(wide), w, len(narrow), n)
	if w != n {
		t.Errorf("a %d-PMID fetch allocates %.0f times, a %d-PMID fetch over the same children %.0f: allocation count grows with width",
			len(wide), w, len(narrow), n)
	}
	// Five federators, a fixed handful each, and sixteen daemon answers.
	ceiling := 72.0
	if raceEnabled {
		ceiling = 88
	}
	if w > ceiling {
		t.Errorf("a root fetch allocates %.0f times, ceiling %.0f", w, ceiling)
	}
}
