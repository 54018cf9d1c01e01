package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// ErrNodeDown is the typed failure of a gated node source: the node is
// killed (immediate refusal) or stalled (refusal after the stall).
var ErrNodeDown = errors.New("cluster: node down")

// Node gate states.
const (
	nodeUp int32 = iota
	nodeKilled
	nodeStalled
)

// Node is one simulated cluster member: a PMCD daemon with its own
// architecture parameters (channel count varies by seed) and noise seed,
// plus a fault gate the chaos harness flips to take the node down.
//
// All nodes of a tree share one simtime.Clock, which is what makes a
// cluster-wide consistent snapshot possible: with the clock held still,
// every daemon that resamples does so at the same virtual time.
type Node struct {
	Name   string
	Seed   uint64
	Daemon *pcp.Daemon

	state atomic.Int32
	stall atomic.Int64 // per-attempt stall when state == nodeStalled, wall ns
}

// NodeChannels returns the node's memory-channel count, an
// architecture parameter varied by seed: 4, 6 or 8 channels, so a
// cluster is heterogeneous the way a real machine-room is.
func NodeChannels(seed uint64) int {
	return 4 + 2*int(mix(seed)%3)
}

// MetricNames returns the node's metric namespace for a seed, sorted
// (the daemon's PMID order): cpu.cycles, cpu.instructions, one
// mem.ch<k>.read_bw per channel, mem.read_bw and mem.write_bw.
func MetricNames(seed uint64) []string {
	names := []string{"cpu.cycles", "cpu.instructions", "mem.read_bw", "mem.write_bw"}
	for ch := 0; ch < NodeChannels(seed); ch++ {
		names = append(names, fmt.Sprintf("mem.ch%d.read_bw", ch))
	}
	sort.Strings(names)
	return names
}

// NewNode builds a node named name with the given noise seed, sampling
// on the shared clock every interval. The daemon is in-process only
// until the tree decides to serve it (Tree net mode).
func NewNode(name string, seed uint64, clock *simtime.Clock, interval simtime.Duration) (*Node, error) {
	names := MetricNames(seed)
	ms := make([]pcp.Metric, len(names))
	for i, mn := range names {
		pmid := uint32(i + 1) // sorted-name order IS the daemon's PMID order
		ms[i] = pcp.Metric{
			Name: mn,
			Read: func(t simtime.Time) (uint64, error) { return MetricValue(seed, pmid, int64(t)), nil },
		}
	}
	d, err := pcp.NewDaemon(clock, interval, ms)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", name, err)
	}
	return &Node{Name: name, Seed: seed, Daemon: d}, nil
}

// Kill takes the node down: every fetch through its gate fails
// immediately until Restore.
func (n *Node) Kill() { n.state.Store(nodeKilled) }

// Stall makes the node pathologically slow: every fetch attempt through
// its gate blocks for d of wall time and then fails. With d beyond the
// edge deadline the node is deterministically missing from every
// answer; with d between HedgeAfter and the deadline it is the slow
// child that hedged retries race.
func (n *Node) Stall(d time.Duration) {
	n.stall.Store(int64(d))
	n.state.Store(nodeStalled)
}

// Restore brings the node back up.
func (n *Node) Restore() { n.state.Store(nodeUp) }

// Source returns the node's gated in-process metric source: the
// daemon's lock-free fetch path behind the fault gate.
func (n *Node) Source() Source {
	return n.GateSource(daemonSource{n.Daemon})
}

// GateSource wraps any source (an in-process daemon, a dialled client)
// with the node's fault gate, so Kill and Stall work the same whether
// the tree edge is a function call or a TCP connection.
func (n *Node) GateSource(src Source) Source {
	return &gatedSource{n: n, src: src}
}

// daemonSource adapts the in-process daemon to Source.
type daemonSource struct{ d *pcp.Daemon }

func (s daemonSource) Names() ([]pcp.NameEntry, error)               { return s.d.Names(), nil }
func (s daemonSource) Fetch(pmids []uint32) (pcp.FetchResult, error) { return s.d.Fetch(pmids), nil }

type gatedSource struct {
	n   *Node
	src Source
}

// Names is ungated: the namespace is topology, not data, and federators
// read it once at construction.
func (g *gatedSource) Names() ([]pcp.NameEntry, error) { return g.src.Names() }

func (g *gatedSource) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	switch g.n.state.Load() {
	case nodeKilled:
		return pcp.FetchResult{}, fmt.Errorf("%w: %s: connection refused", ErrNodeDown, g.n.Name)
	case nodeStalled:
		time.Sleep(time.Duration(g.n.stall.Load()))
		return pcp.FetchResult{}, fmt.Errorf("%w: %s: stalled", ErrNodeDown, g.n.Name)
	}
	return g.src.Fetch(pmids)
}
