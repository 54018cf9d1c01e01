package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"papimc/internal/cluster"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/simtime"
)

// sampleInterval is every daemon's sampling interval and every proxy's
// coalescing interval, in simulated time.
const sampleInterval = 10 * simtime.Millisecond

// maxStale is how many sampling intervals old a proxied answer may be.
// One interval in the daemon's snapshot and one in the proxy's cache are
// by design. The rest is for the box: while the goroutine that won a
// daemon's resample is off the CPU, every fetch is served the previous
// snapshot, and a virtual CPU of the builder's VM was seen to stall for
// 120 ms. So this only catches an answer served for seconds; the value
// check has the teeth: a value must be exactly what its daemon serves
// at the timestamp it claims.
const maxStale = 200

// resampleProbe registers one extra metric on a daemon the benchmark
// did not build (cluster.NewNode owns its metric table). A daemon reads
// every metric once per resample, so the probe's calls count resamples;
// it adds the daemon's metric count to reads on each call and, while the tracer is on,
// records the resample as a span.
func resampleProbe(d *pcp.Daemon, reads *atomic.Int64, tr *tracer) error {
	perResample := int64(len(d.Names()))
	return d.Register(pcp.Metric{
		Name: "bench.resample_probe",
		Read: func(simtime.Time) (uint64, error) {
			reads.Add(perResample)
			tr.orphan("pcp.Metric.Read", tr.now())
			return 0, nil
		},
	})
}

// proxyCounts reads a proxy's exported counters under their metric
// names, plus the two the hit ratio is made of.
func proxyCounts(p *pmproxy.Proxy) map[string]float64 {
	s := p.Stats()
	return map[string]float64{
		"pmproxy.upstream_fetches":   float64(s.UpstreamFetches),
		"pmproxy.upstream_batch_rts": float64(s.UpstreamBatchRTs),
		"pmproxy.stale_serves":       float64(s.StaleServes),
		"pmproxy.sheds":              float64(s.Shed),
		"hits":                       float64(s.CoalescedHits),
		"client_fetches":             float64(s.ClientFetches),
	}
}

// takeProxyCounts reports a pass's proxy counters and their hit ratio.
func (l *ladder) takeProxyCounts(counts map[string]float64) {
	l.take(counts, "pcp.metric_reads", "pmproxy.upstream_fetches", "pmproxy.upstream_batch_rts",
		"pmproxy.stale_serves", "pmproxy.sheds")
	l.out["pmproxy.hit_ratio"] = counts["hits"] / counts["client_fetches"]
}

// buildProxyFanout assembles the dashboard fan-out: one self-certifying
// daemon behind a pmproxy with admission off, each worker a pipelined
// client issuing batches of 16 sets drawn by Zipf from a pool of 64.
func buildProxyFanout(p *plan, sz sizes, w int, tr *tracer) (*stack, error) {
	clock := simtime.NewClock()
	nd, err := cluster.NewNode("node000", proxyNodeSeed, clock, sampleInterval)
	if err != nil {
		return nil, err
	}
	var reads atomic.Int64
	if err := resampleProbe(nd.Daemon, &reads, tr); err != nil {
		return nil, err
	}
	st := &stack{valuesPerOp: proxyBatchSets * proxySetPMIDs}
	var proxy *pmproxy.Proxy
	var clients []*pcp.Client
	st.close = func() {
		for _, c := range clients {
			c.Close()
		}
		if proxy != nil {
			proxy.Close()
		}
		nd.Daemon.Close()
	}
	daddr, err := nd.Daemon.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	proxy = pmproxy.New(pmproxy.Config{Upstream: daddr, Clock: clock, Interval: sampleInterval})
	paddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}

	for i := 0; i < w; i++ {
		c, err := pcp.Dial(paddr)
		if err != nil {
			st.close()
			return nil, err
		}
		if _, err := c.Names(); err != nil { // the name-table exchange is part of set-up
			st.close()
			return nil, err
		}
		clients = append(clients, c)
		st.workers = append(st.workers, proxyWorker(p, i, c, clock, tr.worker(i)))
	}

	// The shared clock follows the wall: one sampling interval per 10 ms,
	// so each distinct set misses about 100 times a second and the rest
	// of the traffic is coalesced hits.
	st.background = func(stop <-chan struct{}) {
		tick := time.NewTicker(time.Duration(sampleInterval))
		defer tick.Stop()
		base, t0 := clock.Now(), time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				steps := int64(time.Since(t0) / time.Duration(sampleInterval))
				clock.AdvanceTo(base.Add(simtime.Duration(steps) * sampleInterval))
			}
		}
	}
	st.counts = func() map[string]float64 {
		out := proxyCounts(proxy)
		out["pcp.metric_reads"] = float64(reads.Load())
		return out
	}
	st.ladder = func(l *ladder, pass passInfo) error {
		l.takeProxyCounts(pass.counts)
		if err := pacedPass(l, st, pass.opsPerS, sz.paced); err != nil {
			return err
		}
		return proxyLadder(l, p, nd, proxy, paddr, daddr)
	}
	return st, nil
}

// proxyWorker is one dashboard: it owns a pipelined client and a ring
// of Zipf draws, and checks every value of every reply against the
// daemon's self-certifying model.
func proxyWorker(p *plan, i int, c *pcp.Client, clock *simtime.Clock, ctx *opCtx) worker {
	draws := p.ProxyDraws[i]
	sets := make([][]uint32, proxyBatchSets)
	var results []pcp.FetchResult
	var issued simtime.Time
	next := 0
	wk := worker{ctx: ctx}
	wk.prep = func() {
		for k := range sets {
			sets[k] = p.ProxySets[draws[next]]
			next = (next + 1) % len(draws)
		}
		issued = clock.Now()
	}
	wk.op = func() (err error) {
		results, err = c.FetchBatchInto(sets, results)
		return err
	}
	wk.verify = func() error {
		if len(results) != len(sets) {
			return fmt.Errorf("proxy_fanout: %d results for %d sets", len(results), len(sets))
		}
		for k, res := range results {
			if res.Timestamp <= int64(issued)-maxStale*int64(sampleInterval) {
				return fmt.Errorf("proxy_fanout: set %d timestamp %d is stale at %d", k, res.Timestamp, issued)
			}
			if len(res.Values) != len(sets[k]) {
				return fmt.Errorf("proxy_fanout: set %d has %d values for %d PMIDs", k, len(res.Values), len(sets[k]))
			}
			for j, v := range res.Values {
				want := cluster.MetricValue(proxyNodeSeed, sets[k][j], res.Timestamp)
				if v.PMID != sets[k][j] || v.Status != pcp.StatusOK || v.Value != want {
					return fmt.Errorf("proxy_fanout: set %d value %d = {pmid %d status %d %#x}, want {pmid %d %#x}",
						k, j, v.PMID, v.Status, v.Value, sets[k][j], want)
				}
			}
		}
		return nil
	}
	return wk
}

// proxyLadder measures the proxy, the batch codec and the tagged frame
// with proxy_fanout's request shape.
func proxyLadder(l *ladder, p *plan, nd *cluster.Node, proxy *pmproxy.Proxy, paddr, daddr string) error {
	sets := p.ProxySets[:proxyBatchSets]
	one := sets[0]
	keep := l.keep
	// In-process, the clock still: every fetch is a coalesced hit.
	_, e := proxy.FetchBatch(sets)
	keep(e)
	l.time("pmproxy.fetch_hit_ns", func() { _, e := proxy.Fetch(one); keep(e) })
	l.time("pmproxy.batch_hit_ns", func() { _, e := proxy.FetchBatch(sets); keep(e) })
	var vals []pcp.FetchValue
	l.time("pcp.daemon_fetch_hit_ns", func() { vals = nd.Daemon.FetchInto(one, vals[:0]).Values })

	// Over the wire, the same batch against the proxy and against the
	// bare daemon; the difference is what the proxy hop costs.
	var rt [2]float64
	for i, addr := range []string{daddr, paddr} {
		c, e := pcp.Dial(addr)
		if e != nil {
			return e
		}
		var results []pcp.FetchResult
		rt[i] = l.perCall(func() { results, e = c.FetchBatchInto(sets, results); keep(e) })
		c.Close()
	}
	l.out["pcp.client_batch_rt_us"] = rt[0] / 1e3
	l.out["pmproxy.self_us"] = (rt[1] - rt[0]) / 1e3

	// The batch response's codec and frame, on the reply the daemon
	// gives to this batch.
	batch := nd.Daemon.FetchBatch(sets)
	var enc []byte
	var dec []pcp.FetchResult
	l.time("pcp.codec_batch_ns", func() {
		enc = pcp.AppendFetchBatchResp(enc[:0], batch, nil, "")
		var e error
		dec, _, e = pcp.DecodeFetchBatchRespInto(enc, dec)
		keep(e)
	})
	var wire bytes.Buffer
	var payload []byte
	l.time("pcp.frame_tagged_ns", func() {
		wire.Reset()
		keep(pcp.WriteTaggedPDU(&wire, pcp.PDUFetchBatchResp, 7, enc))
		var e error
		_, _, payload, e = pcp.ReadTaggedPDUInto(&wire, payload)
		keep(e)
	})
	return l.err
}
