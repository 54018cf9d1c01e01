// Package testutil provides the shared serving-stack testbed: a PMCD
// daemon over a simulated Summit socket (or synthetic metrics), started
// on loopback with cleanup registered, plus client dialling helpers.
// The pcp, pmproxy, loadgen, and chaos tests all build on it instead of
// carrying their own copies of the setup.
//
// The package imports cluster (for StartClusterNodes), and cluster
// imports pmproxy for its federation edges — so pmproxy's own internal
// tests cannot import testutil without a cycle; they carry a local
// copy of the nest rig instead. Proxy construction stays with the
// callers, which also keeps proxy Config choices visible at each test
// site.
package testutil

import (
	"fmt"
	"testing"

	"papimc/internal/arch"
	"papimc/internal/cluster"
	"papimc/internal/mem"
	"papimc/internal/nest"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
	"papimc/internal/sweep"
)

// SampleInterval is the daemon sampling interval the testbeds use: long
// enough that a test can land several fetches inside one interval, short
// enough that Clock.Advance crosses it cheaply.
const SampleInterval = 10 * simtime.Millisecond

// NestBed is a running PMCD daemon exporting a Summit socket's nest PMU
// counters over an ideal (noise-free) memory controller.
type NestBed struct {
	Ctl    *mem.Controller
	Clock  *simtime.Clock
	Daemon *pcp.Daemon
	Addr   string
}

// StartNestDaemon builds the Summit-socket testbed: an ideal controller,
// a nest PMU over it, and a daemon exporting the PMU's counters,
// listening on loopback. Cleanup is registered on t.
func StartNestDaemon(t *testing.T, interval simtime.Duration) NestBed {
	t.Helper()
	clock := simtime.NewClock()
	m := arch.Summit()
	ctl := mem.NewController(mem.Config{Channels: m.Socket.MBAChannels, DisableNoise: true}, clock)
	pmu := nest.NewPMU(m, 0, ctl)
	d, err := pcp.NewDaemon(clock, interval, pcp.NestMetrics([]*nest.PMU{pmu}, nest.RootCredential()))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return NestBed{Ctl: ctl, Clock: clock, Daemon: d, Addr: addr}
}

// NestPMU rebuilds a PMU handle bound to the bed's controller, for
// metric-naming purposes only.
func (b NestBed) NestPMU() *nest.PMU {
	return nest.NewPMU(arch.Summit(), 0, b.Ctl)
}

// StartSyntheticDaemon builds a daemon exporting n synthetic metrics
// named "load.metric.%d" with fixed values i*10, listening on loopback.
// Cleanup is registered on t.
func StartSyntheticDaemon(t *testing.T, n int) (*pcp.Daemon, string) {
	t.Helper()
	d, err := pcp.NewDaemon(simtime.NewClock(), SampleInterval, SyntheticMetrics(n))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, addr
}

// SyntheticMetrics builds n fixed-value metrics named "load.metric.%d".
func SyntheticMetrics(n int) []pcp.Metric {
	ms := make([]pcp.Metric, n)
	for i := range ms {
		v := uint64(i) * 10
		ms[i] = pcp.Metric{
			Name: fmt.Sprintf("load.metric.%d", i),
			Read: func(simtime.Time) (uint64, error) { return v, nil },
		}
	}
	return ms
}

// CounterMetrics builds n monotonically advancing counters named
// "load.counter.%d": metric i ticks i+1 units per simulated millisecond,
// so successive fetches observe motion and each PMID is distinguishable
// by rate. Workload and loadgen tests use these where fixed values would
// hide a stuck sampler.
func CounterMetrics(n int) []pcp.Metric {
	ms := make([]pcp.Metric, n)
	for i := range ms {
		rate := uint64(i + 1)
		ms[i] = pcp.Metric{
			Name: fmt.Sprintf("load.counter.%d", i),
			Read: func(t simtime.Time) (uint64, error) {
				return rate * uint64(int64(t)/int64(simtime.Millisecond)), nil
			},
		}
	}
	return ms
}

// StartCounterDaemon builds a daemon exporting n CounterMetrics,
// listening on loopback. Cleanup is registered on t.
func StartCounterDaemon(t *testing.T, n int) (*pcp.Daemon, string) {
	t.Helper()
	d, err := pcp.NewDaemon(simtime.NewClock(), SampleInterval, CounterMetrics(n))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, addr
}

// ClusterBed is a fleet of in-process cluster nodes sharing one
// simulated clock.
type ClusterBed struct {
	Clock *simtime.Clock
	Nodes []*cluster.Node
}

// StartClusterNodes builds n cluster nodes — each its own PMCD daemon
// with a distinct noise seed and architecture (channel count varies by
// seed) — on a shared clock, with daemon cleanup registered on t. The
// daemons are in-process only: no listeners, so a test can spin up
// hundreds of nodes without port churn. Node i is seeded
// sweep.Seed(seed, i), the same substream convention the cluster tree
// and the sweep executor use.
func StartClusterNodes(t *testing.T, n int, seed uint64) ClusterBed {
	t.Helper()
	bed := ClusterBed{Clock: simtime.NewClock(), Nodes: make([]*cluster.Node, n)}
	for i := range bed.Nodes {
		node, err := cluster.NewNode(fmt.Sprintf("node%03d", i), sweep.Seed(seed, i), bed.Clock, SampleInterval)
		if err != nil {
			t.Fatal(err)
		}
		bed.Nodes[i] = node
		t.Cleanup(func() { node.Daemon.Close() })
	}
	return bed
}

// Dial connects a PCP client to addr, failing the test on error and
// registering cleanup.
func Dial(t *testing.T, addr string) *pcp.Client {
	t.Helper()
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
