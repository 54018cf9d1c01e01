package main

import (
	"encoding/json"
	"math/rand"

	"papimc/internal/cluster"
	"papimc/internal/sweep"
)

// The workload names are fixed: later issues refer to them.
const (
	wlPapiRead       = "papi_read"
	wlProxyFanout    = "proxy_fanout"
	wlClusterScatter = "cluster_scatter"
	wlArchiveMixed   = "archive_mixed"
)

var workloadNames = []string{wlPapiRead, wlProxyFanout, wlClusterScatter, wlArchiveMixed}

// maxWorkers caps the closed-loop generator count: W = min(nproc, 4).
// The plan is always generated for maxWorkers so that the same seed
// gives the same plan on any box; a run uses the first W entries.
const maxWorkers = 4

// Stack seeds shape the systems under test (which node has how many
// channels, what the self-certifying values are). They are constants,
// not inputs: -seed varies only what the generators send.
const (
	// proxyNodeSeed gives the proxy_fanout daemon 8 memory channels,
	// hence 12 PMIDs to draw 8-PMID sets from.
	proxyNodeSeed = 3
	// clusterSeed makes the 16-node tree export 172 names.
	clusterSeed = 1
)

const (
	nestEvents     = 16 // socket-0 nest counters held by each papi_read EventSet
	proxyPoolSets  = 64 // distinct PMID sets in the proxy_fanout pool
	proxySetPMIDs  = 8  // PMIDs per set
	proxyBatchSets = 16 // sets per FetchBatchInto
	// proxyDrawRing is how many Zipf draws each worker cycles through; a
	// prime multiple of nothing in particular, long enough that the ring
	// does not repeat inside one 10 ms cache interval.
	proxyDrawRing = 1 << 16
	panelQueries  = 4
)

// plan is every input the generators send, derived from the seed alone.
// The programs under test see only these.
type plan struct {
	Seed uint64
	// PapiEventOrder is the order in which each papi_read worker adds
	// the 16 nest events to its EventSet.
	PapiEventOrder [][]int
	// ProxySets is the pool of distinct PMID sets; ProxyDraws holds each
	// worker's Zipf-distributed indices into it.
	ProxySets  [][]uint32
	ProxyDraws [][]uint16
	// ClusterTenants assigns each cluster_scatter worker to tenant 1 or 2.
	// ClusterRotate is where in the namespace each worker's PMID list
	// starts (as a share of 1<<16): distinct per worker, so that no two
	// workers ask the proxy for the same set and every op is a miss.
	ClusterTenants []uint32
	ClusterRotate  []uint16
	// PanelOrder is the order in which each archive_mixed reader binds
	// the four panel expressions.
	PanelOrder [][]int
}

// substream indices of sweep.Seed2(seed, stream, worker).
const (
	streamPapi = iota
	streamProxyPool
	streamProxyDraws
	streamCluster
	streamArchive
)

func newPlan(seed uint64) *plan {
	p := &plan{Seed: seed}
	rng := func(stream, worker int) *rand.Rand {
		return rand.New(rand.NewSource(int64(sweep.Seed2(seed, stream, worker))))
	}

	for w := 0; w < maxWorkers; w++ {
		p.PapiEventOrder = append(p.PapiEventOrder, rng(streamPapi, w).Perm(nestEvents))
		p.PanelOrder = append(p.PanelOrder, rng(streamArchive, w).Perm(panelQueries))
	}

	nodePMIDs := len(cluster.MetricNames(proxyNodeSeed))
	pool := rng(streamProxyPool, 0)
	seen := make(map[string]bool)
	for len(p.ProxySets) < proxyPoolSets {
		set := make([]uint32, proxySetPMIDs)
		for i, k := range pool.Perm(nodePMIDs)[:proxySetPMIDs] {
			set[i] = uint32(k + 1) // daemon PMIDs start at 1
		}
		key, _ := json.Marshal(set)
		if !seen[string(key)] {
			seen[string(key)] = true
			p.ProxySets = append(p.ProxySets, set)
		}
	}
	for w := 0; w < maxWorkers; w++ {
		z := rand.NewZipf(rng(streamProxyDraws, w), 1.1, 1, proxyPoolSets-1)
		draws := make([]uint16, proxyDrawRing)
		for i := range draws {
			draws[i] = uint16(z.Uint64())
		}
		p.ProxyDraws = append(p.ProxyDraws, draws)
	}

	// Both tenants are always present; the seed decides who gets which.
	tenants := rng(streamCluster, 0)
	first := uint32(1 + tenants.Intn(2))
	p.ClusterTenants = []uint32{first, 3 - first}
	for w := 2; w < maxWorkers; w++ {
		p.ClusterTenants = append(p.ClusterTenants, uint32(1+tenants.Intn(2)))
	}
	// A quarter of the namespace apart, so the lists stay distinct
	// however small the namespace is.
	offset := tenants.Intn(1 << 14)
	for _, quarter := range tenants.Perm(maxWorkers) {
		p.ClusterRotate = append(p.ClusterRotate, uint16(quarter<<14+offset))
	}
	return p
}

// bytes is the plan's canonical serialization (the determinism test
// compares these).
func (p *plan) bytes() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // plan holds only ints and slices of ints
	}
	return b
}
