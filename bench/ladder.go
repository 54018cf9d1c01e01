package main

import (
	"fmt"
	"strings"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// ladder measures layers from outside, one row per public entry point,
// called directly with the workload's own request shape.
type ladder struct {
	calls int
	out   map[string]float64
	tr    *tracer
	err   error // first failure of any measured call
}

func (l *ladder) keep(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// take reports the named counters as they are.
func (l *ladder) take(counts map[string]float64, names ...string) {
	for _, name := range names {
		l.out[name] = counts[name]
	}
}

// ladderBatch is how many calls one timed batch holds, so that a 20 ns
// call is not measured by a 40 ns clock read.
const ladderBatch = 16

// inUnit converts nanoseconds to the unit the metric's name ends in.
func inUnit(name string, ns float64) float64 {
	if strings.HasSuffix(name, "_us") {
		return ns / 1e3
	}
	return ns
}

// perCall is the median per-call time of fn, in nanoseconds, over
// batches of 16.
func (l *ladder) perCall(fn func()) float64 {
	var batches []float64
	for done := 0; done < l.calls; done += ladderBatch {
		t0 := time.Now()
		for i := 0; i < ladderBatch; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(t0))/ladderBatch)
	}
	return median(batches)
}

// time records perCall(fn) under name.
func (l *ladder) time(name string, fn func()) { l.out[name] = inUnit(name, l.perCall(fn)) }

// timeAfter records the median time of fn when every call needs untimed
// preparation first (a clock advance that forces the miss path). These
// rows are microseconds long, so each call is timed alone.
func (l *ladder) timeAfter(name string, prep, fn func()) {
	each := make([]float64, 0, l.calls)
	for i := 0; i < l.calls; i++ {
		prep()
		t0 := time.Now()
		fn()
		each = append(each, float64(time.Since(t0)))
	}
	l.out[name] = inUnit(name, median(each))
}

// stillMetrics are n cheap metrics for a bare daemon: the round-trip
// rows measure the client and the wire, not what the daemon samples.
func stillMetrics(n int) []pcp.Metric {
	ms := make([]pcp.Metric, n)
	for i := range ms {
		v := uint64(i)
		ms[i] = pcp.Metric{
			Name: fmt.Sprintf("bench.still.%03d", i),
			Read: func(simtime.Time) (uint64, error) { return v, nil },
		}
	}
	return ms
}

// bareDaemon serves n still metrics on loopback with its clock held.
func bareDaemon(n int) (d *pcp.Daemon, addr string, pmids []uint32, err error) {
	d, err = pcp.NewDaemon(simtime.NewClock(), 10*simtime.Millisecond, stillMetrics(n))
	if err != nil {
		return nil, "", nil, err
	}
	if addr, err = d.Start("127.0.0.1:0"); err != nil {
		return nil, "", nil, err
	}
	for _, e := range d.Names() {
		pmids = append(pmids, e.PMID)
	}
	return d, addr, pmids, nil
}

// clientRows measures one client round trip of n PMIDs against a bare
// daemon at both ends of the version range, plus its allocations.
func (l *ladder) clientRows(n int) error {
	d, addr, pmids, err := bareDaemon(n)
	if err != nil {
		return err
	}
	defer d.Close()
	for _, row := range []struct {
		name string
		max  uint32
	}{{"pcp.client_rt_v1_us", pcp.Version1}, {"pcp.client_rt_v3_us", pcp.MaxVersion}} {
		c, err := pcp.DialMax(addr, row.max)
		if err != nil {
			return err
		}
		var res pcp.FetchResult
		fetch := func() { l.keep(c.FetchInto(pmids, &res)) }
		fetch() // warm the result buffer
		l.time(row.name, fetch)
		if row.max == pcp.MaxVersion {
			l.out["pcp.client_allocs_per_rt"] = allocsPerRun(l.calls, fetch)
		}
		c.Close()
	}
	return l.err
}

// allocsPerRun is testing.AllocsPerRun without linking the testing
// package into the benchmark binary: mean mallocs per call.
func allocsPerRun(runs int, fn func()) float64 {
	fn()
	_, before := heapAllocs()
	for i := 0; i < runs; i++ {
		fn()
	}
	_, after := heapAllocs()
	return float64(after-before) / float64(runs)
}

// codecRow measures encode plus decode of one fetch response of n values.
func (l *ladder) codecRow(n int) {
	res := pcp.FetchResult{Timestamp: 12345, Values: make([]pcp.FetchValue, n)}
	for i := range res.Values {
		res.Values[i] = pcp.FetchValue{PMID: uint32(i + 1), Value: uint64(i) << 20}
	}
	var buf []byte
	var back pcp.FetchResult
	l.time("pcp.codec_resp_ns", func() {
		buf = pcp.AppendFetchResp(buf[:0], res)
		l.keep(pcp.DecodeFetchRespInto(buf, &back))
	})
}
