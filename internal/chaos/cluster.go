package chaos

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"papimc/internal/cluster"
	"papimc/internal/metricql"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/xrand"
)

// ClusterProfile is a tree-wide fault plan: how many nodes are killed
// (immediate refusal) and stalled (slower than every deadline) during a
// trial, and whether the victim set flaps between queries.
type ClusterProfile struct {
	Kill  int
	Stall int
	Flap  bool // re-draw the victims before every query
}

// ClusterProfiles are the named tree-wide profiles shared by the test
// suite and the cmd/chaos -cluster driver.
var ClusterProfiles = map[string]ClusterProfile{
	"healthy":  {},
	"killed":   {Kill: 3},
	"stalled":  {Stall: 2},
	"mixed":    {Kill: 2, Stall: 1},
	"flapping": {Kill: 3, Flap: true},
}

// ClusterOptions configures a federated-cluster chaos run.
type ClusterOptions struct {
	// Seed is the base seed; trial i derives sweep.Seed(Seed, i), which
	// seeds both the tree's node substreams and the victim draws.
	Seed uint64
	// Trials is how many independent trees to drive (default 2).
	Trials int
	// Queries is the scatter-gather query count per trial (default 4).
	Queries int
	// Nodes and FanOut shape each trial's tree (defaults 64 and 4 — the
	// 3-level acceptance geometry).
	Nodes  int
	FanOut int
	// Workers parallelizes trials; sweep.Workers semantics.
	Workers int
	// Profile is the fault plan.
	Profile ClusterProfile
	// Trial, when >= 0, replays only that trial index.
	Trial int
}

// ClusterTrial is one trial's outcome. Every field is a deterministic
// function of (base seed, index): victims come from the trial's seed
// substream, values from the nodes' self-certifying streams, and the
// missing-set from the victim set — nothing timing-dependent is
// recorded, which is what keeps the report byte-reproducible.
type ClusterTrial struct {
	Outcome
	Depth    int
	Queries  int
	Partials int      // queries that answered partially
	Missing  []string // the final query's missing set, sorted
}

func (t ClusterTrial) render(b *strings.Builder) {
	fmt.Fprintf(b, "cluster trial %02d seed=%#016x depth=%d queries=%d partials=%d missing=[%s]\n",
		t.Index, t.Seed, t.Depth, t.Queries, t.Partials, strings.Join(t.Missing, ","))
}

// ClusterReproLine is the one-command replay for a failing cluster
// trial.
func ClusterReproLine(o ClusterOptions, trial int) string {
	return fmt.Sprintf("go run ./cmd/chaos -cluster -seed %#x -trials %d -trial %d -nodes %d -fanout %d -queries %d -kill %d -stalled %d -flap=%v",
		o.Seed, max(o.Trials, trial+1), trial, o.Nodes, o.FanOut, o.Queries,
		o.Profile.Kill, o.Profile.Stall, o.Profile.Flap)
}

// victimStream decorrelates victim draws from the tree's node seeds.
const victimStream = 0x71C

// Edge policy for chaos trees: tight leaf deadlines so stalled nodes
// are cut fast, a hedge window inside the deadline, one retry. Only
// leaf edges touch nodes, so the stall just has to exceed the leaf
// round's whole budget — Deadline·(Retries+1) = 40ms — for a stalled
// node to miss every attempt deterministically.
const (
	clusterDeadline = 20 * time.Millisecond
	clusterHedge    = 5 * time.Millisecond
	clusterStallFor = 250 * time.Millisecond
	clusterRetries  = 1
)

// RunCluster executes the federated-cluster chaos sweep: each trial
// assembles its own tree, takes killed/stalled nodes through a stream
// of cluster-wide consistent snapshots and grouped metricql queries,
// and checks the partial-result contract on every answer:
//
//   - a query with k nodes down still answers, and its PartialError
//     names exactly the down nodes — no more, no fewer;
//   - every answered value certifies against the single snapshot
//     timestamp (cluster.MetricValue recomputation);
//   - the grouped query's node groups are exactly the survivors, each
//     group value certified;
//   - every federation edge's counters obey the conservation laws.
func RunCluster(o ClusterOptions) (*Report[ClusterTrial], error) {
	if o.Trials <= 0 {
		o.Trials = 2
	}
	if o.Queries <= 0 {
		o.Queries = 4
	}
	if o.Nodes <= 0 {
		o.Nodes = 64
	}
	if o.FanOut <= 1 {
		o.FanOut = 4
	}
	return runTrials(o.Seed, o.Trials, o.Workers, o.Trial, func(oc Outcome) (ClusterTrial, error) {
		return runClusterTrial(o, oc)
	})
}

func runClusterTrial(o ClusterOptions, oc Outcome) (ClusterTrial, error) {
	t := ClusterTrial{Outcome: oc, Queries: o.Queries}

	tr, err := cluster.Assemble(cluster.Config{
		Nodes:    o.Nodes,
		FanOut:   o.FanOut,
		Seed:     t.Seed,
		Interval: Interval,
		Policy: pmproxy.EdgePolicy{
			Deadline:   clusterDeadline,
			HedgeAfter: clusterHedge,
			Retries:    clusterRetries,
		},
	})
	if err != nil {
		return t, err
	}
	defer tr.Close()
	t.Depth = tr.Depth()

	eng := metricql.NewEngine(tr.Root)
	query, err := eng.Query("sum(mem.read_bw) by (node)")
	if err != nil {
		return t, err
	}

	rng := xrand.New(mix(t.Seed ^ victimStream))
	var down []string // sorted victim names
	applyVictims := func() {
		for _, n := range tr.Nodes {
			n.Restore()
		}
		perm := rng.Perm(o.Nodes)
		down = down[:0]
		for i := 0; i < o.Profile.Kill+o.Profile.Stall && i < o.Nodes; i++ {
			n := tr.Nodes[perm[i]]
			if i < o.Profile.Kill {
				n.Kill()
			} else {
				n.Stall(clusterStallFor)
			}
			down = append(down, n.Name)
		}
		sort.Strings(down)
	}
	applyVictims()

	for q := 0; q < o.Queries; q++ {
		if o.Profile.Flap && q > 0 {
			applyVictims()
		}

		// Consistent snapshot: one virtual timestamp, every value
		// certified by Tree.Snapshot, missing set exact.
		res, err := tr.Snapshot()
		ts := int64(tr.Clock.Now())
		var pe *pcp.PartialError
		switch {
		case errors.As(err, &pe):
			t.Partials++
			if !slices.Equal(pe.Missing, down) {
				t.violate("query %d: missing=%v but down=%v", q, pe.Missing, down)
			}
		case err != nil:
			t.violate("query %d: snapshot failed: %v", q, err)
			continue
		case len(down) > 0:
			t.violate("query %d: %d nodes down but the snapshot claims completeness", q, len(down))
		}
		if res.Timestamp != ts {
			t.violate("query %d: snapshot ts=%d, clock=%d", q, res.Timestamp, ts)
		}

		// The grouped query over the same snapshot interval: groups are
		// exactly the survivors, values certified.
		v, err := query.Eval()
		switch {
		case errors.As(err, &pe):
			if !slices.Equal(pe.Missing, down) {
				t.violate("query %d: metricql missing=%v but down=%v", q, pe.Missing, down)
			}
		case err != nil:
			t.violate("query %d: metricql eval failed: %v", q, err)
			continue
		case len(down) > 0:
			t.violate("query %d: metricql saw no outage with %d nodes down", q, len(down))
		}
		downSet := make(map[string]bool, len(down))
		for _, n := range down {
			downSet[n] = true
		}
		if len(v.Names) != o.Nodes-len(down) {
			t.violate("query %d: %d node groups, want %d", q, len(v.Names), o.Nodes-len(down))
		}
		for i, name := range v.Names {
			if downSet[name] {
				t.violate("query %d: down node %s present in grouped answer", q, name)
				continue
			}
			node := tr.Node(name)
			if node == nil {
				t.violate("query %d: grouped answer names unknown node %q", q, name)
				continue
			}
			if want := float64(readBW(node.Seed, ts)); v.Vals[i] != want {
				t.violate("query %d: %s group value %v, want %v", q, name, v.Vals[i], want)
			}
		}
	}
	t.Missing = append([]string(nil), down...)

	// Attempts abandoned at a deadline are still asleep in the stall
	// gate: Fetches counts them at launch, but their failure lands only
	// when they wake. Let the ledgers settle before auditing them.
	settle := time.Now().Add(clusterStallFor + 2*time.Second)
	for {
		settled := true
		for _, es := range tr.EdgeStats() {
			if es.Stats.Fetches != es.Stats.Successes+es.Stats.Failures {
				settled = false
				break
			}
		}
		if settled || time.Now().After(settle) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Edge accounting: every edge of every federator obeys the
	// conservation laws after the whole query stream.
	for _, es := range tr.EdgeStats() {
		s := es.Stats
		if s.Fetches != s.Successes+s.Failures {
			t.violate("edge %s: Fetches=%d != Successes=%d + Failures=%d", es.Edge, s.Fetches, s.Successes, s.Failures)
		}
		if s.Errors != s.Retries+s.Failures {
			t.violate("edge %s: Errors=%d != Retries=%d + Failures=%d", es.Edge, s.Errors, s.Retries, s.Failures)
		}
		if s.HedgesWon > s.Hedges {
			t.violate("edge %s: HedgesWon=%d > Hedges=%d", es.Edge, s.HedgesWon, s.Hedges)
		}
		if s.DeadlineMisses > s.Errors {
			t.violate("edge %s: DeadlineMisses=%d > Errors=%d", es.Edge, s.DeadlineMisses, s.Errors)
		}
	}
	return t, nil
}

// readBW is the certified mem.read_bw value for a node seed at ts: the
// metric's PMID is its index in the node's sorted namespace.
func readBW(seed uint64, ts int64) uint64 {
	for i, name := range cluster.MetricNames(seed) {
		if name == "mem.read_bw" {
			return cluster.MetricValue(seed, uint32(i+1), ts)
		}
	}
	return 0
}
