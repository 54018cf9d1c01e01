package main

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"papimc/internal/arch"
	"papimc/internal/mem"
	"papimc/internal/model"
	"papimc/internal/nest"
	"papimc/internal/node"
	"papimc/internal/papi"
	"papimc/internal/papi/components/pcpcomp"
	"papimc/internal/papi/components/perfuncore"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// papiStackSeed seeds the (noise-free) node; it shapes nothing here but
// is recorded with the other stack seeds.
const papiStackSeed = 1

// playTraffic is what worker 0 injects before every 4th read: 10 ms of
// simulated time, which is one PMCD sampling interval, so the daemon
// resamples on one read in four and the counters move.
var playTraffic = model.Traffic{ReadBytes: 1 << 20, WriteBytes: 1 << 19, Duration: 10 * simtime.Millisecond}

// tracedSource interposes at pcpcomp.Source, under EventSet.Read and
// above the client. It keeps the client's allocation-free FetchInto.
type tracedSource struct {
	c   *pcp.Client
	ctx *opCtx
}

func (s *tracedSource) Names() ([]pcp.NameEntry, error)    { return s.c.Names() }
func (s *tracedSource) Lookup(name string) (uint32, error) { return s.c.Lookup(name) }

func (s *tracedSource) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	sp := s.ctx.begin()
	res, err := s.c.Fetch(pmids)
	s.ctx.end("pcpcomp.Source.Fetch", sp)
	return res, err
}

func (s *tracedSource) FetchInto(pmids []uint32, res *pcp.FetchResult) error {
	sp := s.ctx.begin()
	err := s.c.FetchInto(pmids, res)
	s.ctx.end("pcpcomp.Source.Fetch", sp)
	return err
}

// countReads interposes at pcp.Metric.Read: every call is counted, and
// recorded as a span while the tracer is on. The daemon calls these from
// its own goroutines, so the spans are attributed afterwards.
func countReads(ms []pcp.Metric, reads *atomic.Int64, tr *tracer) []pcp.Metric {
	out := slices.Clone(ms)
	for i := range out {
		read := out[i].Read
		out[i].Read = func(t simtime.Time) (uint64, error) {
			reads.Add(1)
			if !tr.on.Load() {
				return read(t)
			}
			start := tr.now()
			v, err := read(t)
			tr.orphan("pcp.Metric.Read", start)
			return v, err
		}
	}
	return out
}

// buildPapiRead assembles the paper's path: EventSet.Read → pcpcomp →
// pcp.Client → PMCD daemon → nest PMU → memory controller. It is
// node.NewTestbed's wiring done by hand, because the benchmark has to
// hand the daemon its (wrapped) metrics itself.
func buildPapiRead(p *plan, sz sizes, w int, tr *tracer) (*stack, error) {
	clock := simtime.NewClock()
	m := arch.Summit()
	nd := node.New(m, clock, node.Options{Seed: papiStackSeed, DisableNoise: true}, 0)
	var reads atomic.Int64
	d, err := pcp.NewDaemon(clock, m.Noise.PMCDSampleInterval,
		countReads(pcp.NestMetrics(nd.PMUs, nest.RootCredential()), &reads, tr))
	if err != nil {
		return nil, err
	}
	st := &stack{valuesPerOp: nestEvents}
	var clients []*pcp.Client
	st.close = func() {
		for _, c := range clients {
			c.Close()
		}
		d.Close()
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	events := nd.PMUs[0].Events()
	cpu := m.HWThreadsPerSocket() - 1 // Table I's ":cpu87" instance
	var injected model.Traffic        // by worker 0, between its Start and Stop
	var first *papi.EventSet
	for i := 0; i < w; i++ {
		c, err := pcp.Dial(addr)
		if err != nil {
			st.close()
			return nil, err
		}
		clients = append(clients, c)
		ctx := tr.worker(i)
		lib := papi.NewLibrary(clock)
		if err := lib.Register(pcpcomp.New(&tracedSource{c: c, ctx: ctx})); err != nil {
			st.close()
			return nil, err
		}
		es := lib.NewEventSet()
		for _, k := range p.PapiEventOrder[i] {
			if err := es.Add(fmt.Sprintf("pcp:::%s:cpu%d", events[k].PCPMetricName(), cpu)); err != nil {
				st.close()
				return nil, err
			}
		}
		if err := es.Start(); err != nil {
			st.close()
			return nil, err
		}

		var vals, prev []uint64
		wk := worker{ctx: ctx}
		wk.op = func() (err error) { vals, err = es.Read(); return err }
		wk.verify = func() error {
			if len(vals) != nestEvents {
				return fmt.Errorf("papi_read: %d values for %d events", len(vals), nestEvents)
			}
			for k := range prev {
				if vals[k] < prev[k] {
					return fmt.Errorf("papi_read: event %d went backwards: %d after %d", k, vals[k], prev[k])
				}
			}
			prev = vals
			return nil
		}
		if i == 0 {
			first = es
			n := 0
			wk.prep = func() {
				if n%4 == 0 {
					nd.Play(0, playTraffic, 1)
					injected.ReadBytes += playTraffic.ReadBytes
					injected.WriteBytes += playTraffic.WriteBytes
				}
				n++
			}
		}
		st.workers = append(st.workers, wk)
	}

	st.counts = func() map[string]float64 {
		return map[string]float64{"pcp.metric_reads": float64(reads.Load())}
	}
	// Worker 0's totals must be exactly what it injected: with the clock
	// past the posting latency and one sampling interval, the daemon's
	// next sample holds every byte.
	st.finish = func() error {
		clock.Advance(m.Noise.CounterPostLatency + m.Noise.PMCDSampleInterval)
		totals, err := first.Stop()
		if err != nil {
			return fmt.Errorf("papi_read: Stop: %w", err)
		}
		var got model.Traffic
		for pos, k := range p.PapiEventOrder[0] {
			if events[k].Write {
				got.WriteBytes += int64(totals[pos])
			} else {
				got.ReadBytes += int64(totals[pos])
			}
		}
		if got.ReadBytes != injected.ReadBytes || got.WriteBytes != injected.WriteBytes {
			return fmt.Errorf("papi_read: Stop totals read=%d write=%d, injected read=%d write=%d",
				got.ReadBytes, got.WriteBytes, injected.ReadBytes, injected.WriteBytes)
		}
		return nil
	}

	st.ladder = func(l *ladder, pass passInfo) error {
		l.take(pass.counts, "pcp.metric_reads")
		if err := papiDirectRow(l); err != nil {
			return err
		}
		l.out["papi.self_us"] = median(selfTimes(pass.spans)["op"]) / 1e3
		if err := l.clientRows(nestEvents); err != nil {
			return err
		}
		l.codecRow(nestEvents)

		var pmids []uint32
		for _, e := range d.Names() {
			if strings.HasSuffix(e.Name, fmt.Sprintf(".cpu%d", cpu)) {
				pmids = append(pmids, e.PMID)
			}
		}
		var vals []pcp.FetchValue
		fetch := func() { vals = d.FetchInto(pmids, vals[:0]).Values }
		l.time("pcp.daemon_fetch_hit_ns", fetch)
		l.timeAfter("pcp.daemon_resample_us", func() { nd.Play(0, playTraffic, 1) }, fetch)

		var raw []uint64
		l.time("nest.readall_ns", func() {
			var err error
			raw, err = nd.PMUs[0].ReadAllInto(events, nest.RootCredential(), clock.Now(), raw)
			l.keep(err)
		})
		// Traffic that ends in the future stays pending in the posting
		// queue, so every read has to look past it.
		ctl := nd.Mem[0]
		now := clock.Now()
		for i := 1; i <= 8; i++ {
			ctl.AddTraffic(true, int64(i)*4096, 1<<16, now, now.Add(simtime.Duration(i)*simtime.Second))
		}
		var counts []mem.ChannelCounts
		l.time("mem.readinto_ns", func() { counts = ctl.ReadInto(now, counts) })
		l.out["mem.pending_buckets"] = float64(ctl.PendingBuckets())

		// What blocks a median read: the library's own work plus one
		// client round trip that hits the daemon's snapshot.
		l.out["budget.closure_papi_read"] = (l.out["papi.self_us"] + l.out["pcp.client_rt_v3_us"]) / pass.p50us
		return l.err
	}
	return st, nil
}

// papiDirectRow is the floor under papi_read: the same EventSet.Read on
// Tellico's direct (perf_uncore) route, with no wire beneath it.
func papiDirectRow(l *ladder) error {
	clock := simtime.NewClock()
	m := arch.Tellico()
	nd := node.New(m, clock, node.Options{Seed: papiStackSeed, DisableNoise: true}, 0)
	lib := papi.NewLibrary(clock)
	if err := lib.Register(perfuncore.New(nd.PMUs, nest.CredentialFor(m))); err != nil {
		return err
	}
	es := lib.NewEventSet()
	for _, ev := range nd.PMUs[0].Events() {
		if err := es.Add(ev.PerfUncoreName(0)); err != nil {
			return err
		}
	}
	if err := es.Start(); err != nil {
		return err
	}
	l.time("papi.read_direct_ns", func() { _, err := es.Read(); l.keep(err) })
	return l.err
}
