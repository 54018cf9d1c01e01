package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"papimc/internal/cluster"
	"papimc/internal/metricql"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
)

// scatterStep is how far every cluster_scatter op moves the shared
// clock before it fetches: past every daemon's sampling interval and
// the proxy's coalescing interval, so the op misses all the way down.
const scatterStep = sampleInterval + 1

// tenantQuota sits ten times above what the workload can offer: every
// op advances the clock by 10 ms, so W workers offer at most 100 ops per
// simulated second between them. Admission and the fair queue run on
// every op and shed nothing.
var tenantQuota = pmproxy.TenantConfig{Rate: 1000, Burst: 1000}

// buildClusterScatter assembles the operator query over a federation: a
// 16-node, fan-out-4 tree with every interior edge over TCP, its root
// served and fronted by a pmproxy running the token-bucket policy for
// two tenants. Every op is a proxy miss that scatters to all 16 daemons.
func buildClusterScatter(p *plan, sz sizes, w int, tr *tracer) (*stack, error) {
	tree, err := cluster.Assemble(cluster.Config{
		Nodes: sz.clusterNodes, FanOut: 4, Seed: clusterSeed, Interval: sampleInterval, Net: true,
	})
	if err != nil {
		return nil, err
	}
	st := &stack{}
	var srv *cluster.Server
	var proxy *pmproxy.Proxy
	var clients []*pcp.Client
	st.close = func() {
		for _, c := range clients {
			c.Close()
		}
		if proxy != nil {
			proxy.Close()
		}
		if srv != nil {
			srv.Close()
		}
		tree.Close()
	}
	fail := func(err error) (*stack, error) { st.close(); return nil, err }

	var reads atomic.Int64
	for _, n := range tree.Nodes {
		if err := resampleProbe(n.Daemon, &reads, tr); err != nil {
			return fail(err)
		}
	}
	var raddr string
	if srv, raddr, err = cluster.Serve(tree.Root, "127.0.0.1:0"); err != nil {
		return fail(err)
	}
	proxy = pmproxy.New(pmproxy.Config{
		Upstream: raddr, Clock: tree.Clock, Interval: sampleInterval,
		Admission: pmproxy.AdmissionConfig{
			Policy:  "token-bucket",
			Tenants: map[uint32]pmproxy.TenantConfig{1: tenantQuota, 2: tenantQuota},
		},
	})
	paddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}

	names, err := tree.Root.Names()
	if err != nil {
		return fail(err)
	}
	st.valuesPerOp = len(names)

	for i := 0; i < w; i++ {
		// This worker's request: the whole namespace, started where the
		// plan says, with each PMID's owning node for the per-node check.
		at := int(p.ClusterRotate[i]) * len(names) >> 16
		pmids := make([]uint32, len(names))
		owner := make([]string, len(names))
		for k := range names {
			e := names[(at+k)%len(names)]
			pmids[k] = e.PMID
			owner[k], _, _ = strings.Cut(e.Name, ":")
		}
		c, err := pcp.DialTenant(paddr, p.ClusterTenants[i])
		if err != nil {
			return fail(err)
		}
		clients = append(clients, c)
		if _, err := c.Names(); err != nil {
			return fail(err)
		}
		var res pcp.FetchResult
		var issued int64
		wk := worker{ctx: tr.worker(i)}
		wk.prep = func() { issued = int64(tree.Clock.Advance(scatterStep)) }
		wk.op = func() error { return c.FetchInto(pmids, &res) }
		wk.verify = func() error {
			return certifyScatter(tree, res, pmids, owner, issued-staleSteps*int64(scatterStep))
		}
		st.workers = append(st.workers, wk)
	}

	st.counts = func() map[string]float64 {
		out := proxyCounts(proxy)
		out["pcp.metric_reads"] = float64(reads.Load())
		for _, e := range tree.EdgeStats() {
			out["cluster.edge_attempts"] += float64(e.Stats.Fetches)
			out["cluster.edge_hedges"] += float64(e.Stats.Hedges)
			out["cluster.edge_retries"] += float64(e.Stats.Retries)
			out["cluster.edge_failures"] += float64(e.Stats.Failures)
		}
		return out
	}
	st.ladder = func(l *ladder, pass passInfo) error {
		l.takeProxyCounts(pass.counts)
		l.take(pass.counts, "cluster.edge_attempts", "cluster.edge_hedges", "cluster.edge_retries", "cluster.edge_failures")
		pmids := make([]uint32, len(names))
		for k, e := range names {
			pmids[k] = e.PMID
		}
		return clusterLadder(l, tree, proxy, pmids, pass)
	}
	return st, nil
}

// staleSteps bounds a value's age in clock steps. A daemon that is
// resampling for one worker's scatter serves the others its previous
// snapshot, so by design a value can date from a step of any op in
// flight or the round before. The rest is for the box: while a stalled
// virtual CPU holds one worker mid-resample, the others keep stepping
// the clock and keep being served that previous snapshot.
const staleSteps = 4096

// certifyScatter checks one full-namespace reply. When no other worker
// moved the clock during the scatter every daemon sampled at the same
// instant and Tree.Certify passes as it stands. Otherwise the reply is
// a mix: each node's values must still certify, together, against one
// instant the workers produced, no older than oldest. The tree's clock
// starts at zero and only ever moves by scatterStep, so those instants
// are the multiples of scatterStep.
func certifyScatter(tree *cluster.Tree, res pcp.FetchResult, pmids []uint32, owner []string, oldest int64) error {
	if len(res.Values) != len(pmids) {
		return fmt.Errorf("cluster_scatter: %d values for %d PMIDs", len(res.Values), len(pmids))
	}
	for i, v := range res.Values {
		if v.PMID != pmids[i] || v.Status != pcp.StatusOK {
			return fmt.Errorf("cluster_scatter: value %d = {pmid %d status %d}, want pmid %d OK", i, v.PMID, v.Status, pmids[i])
		}
	}
	if res.Timestamp >= oldest && tree.Certify(res, res.Timestamp) == nil {
		return nil
	}
	if res.Timestamp%int64(scatterStep) != 0 {
		return fmt.Errorf("cluster_scatter: timestamp %d is no instant the workers produced", res.Timestamp)
	}
	for lo := 0; lo < len(owner); {
		hi := lo
		for hi < len(owner) && owner[hi] == owner[lo] {
			hi++
		}
		part := pcp.FetchResult{Values: res.Values[lo:hi]}
		certified := false
		for t := res.Timestamp; t >= oldest && !certified; t -= int64(scatterStep) {
			part.Timestamp = t
			certified = tree.Certify(part, t) == nil
		}
		if !certified {
			return fmt.Errorf("cluster_scatter: %s's values certify against no instant in [%d, %d]",
				owner[lo], oldest, res.Timestamp)
		}
		lo = hi
	}
	return nil
}

// timedChild interposes at cluster.Source (via cluster.Child): it times
// each child fetch of a hand-built federator.
type timedChild struct {
	src  cluster.Source
	tr   *tracer
	last time.Duration
}

func (c *timedChild) Names() ([]pcp.NameEntry, error) { return c.src.Names() }

func (c *timedChild) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	start, t0 := c.tr.now(), time.Now()
	res, err := c.src.Fetch(pmids)
	c.last = time.Since(t0)
	c.tr.orphan("cluster.Source.Fetch", start)
	return res, err
}

// clusterLadder measures the tree, the proxy's miss path and admission,
// and the wide frame, with cluster_scatter's request shape.
func clusterLadder(l *ladder, tree *cluster.Tree, proxy *pmproxy.Proxy, pmids []uint32, pass passInfo) error {
	step := func() { tree.Clock.Advance(scatterStep) }
	partial := func(err error) {
		var pe *pcp.PartialError
		if errors.As(err, &pe) {
			err = fmt.Errorf("partial answer without faults: %w", err)
		}
		l.keep(err)
	}

	if err := l.clientRows(len(pmids)); err != nil {
		return err
	}
	l.codecRow(len(pmids))
	l.timeAfter("pmproxy.fetch_miss_us", step, func() { _, err := proxy.FetchTenant(1, pmids); partial(err) })
	l.timeAfter("cluster.root_fetch_inproc_us", step, func() { _, err := tree.Root.Fetch(pmids); partial(err) })
	leaf := tree.Levels[0][0]
	leafNames, err := leaf.Names()
	if err != nil {
		return err
	}
	leafPMIDs := make([]uint32, len(leafNames))
	for i, e := range leafNames {
		leafPMIDs[i] = e.PMID
	}
	l.timeAfter("cluster.leaf_fed_fetch_us", step, func() { _, err := leaf.Fetch(leafPMIDs); partial(err) })

	// One node's resample, as the scatter pays it sixteen times over.
	nd := tree.Nodes[0]
	var nodePMIDs []uint32
	for _, e := range nd.Daemon.Names() {
		nodePMIDs = append(nodePMIDs, e.PMID)
	}
	var vals []pcp.FetchValue
	l.timeAfter("pcp.daemon_resample_us", step, func() { vals = nd.Daemon.FetchInto(nodePMIDs, vals[:0]).Values })

	// Stragglers: a hand-built root over the tree's own leaf federators
	// (each scatters to its nodes over TCP), every child behind a timing
	// wrapper; per scatter, the slowest child minus the median child.
	kids := make([]*timedChild, len(tree.Levels[0]))
	children := make([]cluster.Child, len(kids))
	for i, fed := range tree.Levels[0] {
		kids[i] = &timedChild{src: fed, tr: l.tr}
		children[i] = cluster.Child{Name: fed.Name(), Src: kids[i], Nodes: fed.Nodes()}
	}
	fed, err := cluster.NewFederator("bench", children, pmproxy.EdgePolicy{})
	if err != nil {
		return err
	}
	var gaps []float64
	l.tr.on.Store(true)
	for i := 0; i < l.calls; i++ {
		step()
		_, err := fed.FetchAll()
		partial(err)
		d := make([]float64, len(kids))
		for k, c := range kids {
			d[k] = float64(c.last)
		}
		gaps = append(gaps, slices.Max(d)-median(d))
	}
	l.tr.on.Store(false)
	l.out["cluster.straggler_us"] = median(gaps) / 1e3

	admit, err := pmproxy.NewPolicy("token-bucket", pmproxy.AdmissionConfig{
		Tenants: map[uint32]pmproxy.TenantConfig{1: {Rate: 1e12, Burst: 1e12}},
	})
	if err != nil {
		return err
	}
	now := int64(0)
	l.time("pmproxy.admit_ns", func() {
		now += int64(simtime.Millisecond)
		l.keep(admit.Admit(pmproxy.AdmitRequest{Tenant: 1, Cost: 1, Now: now}))
	})

	// The wide frame around a full-namespace reply.
	step()
	full, err := tree.Root.Fetch(pmids)
	partial(err)
	enc := pcp.AppendFetchResp(nil, full)
	var wire bytes.Buffer
	var payload []byte
	l.time("pcp.frame_wide_ns", func() {
		wire.Reset()
		l.keep(pcp.WriteWidePDU(&wire, pcp.PDUFetchResp, 7, 1, enc))
		var err error
		_, _, _, payload, err = pcp.ReadWidePDUInto(&wire, payload)
		l.keep(err)
	})

	// BENCH_5's grouped query, in this schema.
	eng := metricql.NewEngine(tree.Root)
	q, err := eng.Query("sum(mem.read_bw) by (node)")
	if err != nil {
		return err
	}
	l.timeAfter("metricql.groupby_eval_us", step, func() { _, err := q.Eval(); partial(err) })

	// What blocks a median op: the client hop to the proxy with a
	// full-namespace reply, then the proxy's miss path, which itself
	// holds admission, the upstream hop and the root's scatter.
	l.out["budget.closure_cluster_scatter"] = (l.out["pcp.client_rt_v3_us"] + l.out["pmproxy.fetch_miss_us"]) / pass.p50us
	return l.err
}
