// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each BenchmarkFig*/BenchmarkTable* regenerates its
// experiment end to end on the simulated testbed (quick parameter
// ranges; run cmd/figures for the paper-scale sweeps) and reports the
// headline quantity as a custom metric, so `go test -bench .` prints the
// reproduced results next to the timings:
//
//   - read-err / write-err: mean relative error of measured vs expected
//     traffic (Figs. 2–5; the jump regions are excluded from the mean
//     where the paper's expectation deliberately stops applying);
//   - reads-per-write: the traffic-ratio signature (Figs. 6–9);
//   - bandwidth and ratio columns (Fig. 10);
//   - samples and phases (Figs. 11–12).
//
// Micro-benchmarks of the substrates (cache simulation rate, PDU
// round-trip, FFT throughput, EventSet read latency) follow at the end.
package papimc_test

import (
	"fmt"
	"testing"

	"papimc/internal/arch"
	"papimc/internal/archive"
	"papimc/internal/cache"
	"papimc/internal/fft"
	"papimc/internal/figures"
	"papimc/internal/harness"
	"papimc/internal/kernels"
	"papimc/internal/metricql"
	"papimc/internal/model"
	"papimc/internal/mpi"
	"papimc/internal/node"
	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
	"papimc/internal/trace"
	"papimc/internal/xrand"
)

var quick = figures.Options{Quick: true}

// meanPointErrors averages the relative errors of a sweep, keeping only
// sizes where the dashed-line expectation applies (below the cache
// regime boundary given by keep).
func meanPointErrors(b *testing.B, pts []harness.Point, keep func(size int64) bool) {
	b.Helper()
	var readErr, writeErr float64
	n := 0
	for _, p := range pts {
		if keep != nil && !keep(p.Size) {
			continue
		}
		readErr += p.ReadError()
		writeErr += p.WriteError()
		n++
	}
	if n == 0 {
		b.Fatal("no points in the comparable regime")
	}
	b.ReportMetric(readErr/float64(n), "read-err")
	b.ReportMetric(writeErr/float64(n), "write-err")
}

func benchGEMMFig(b *testing.B, gen func(figures.Options) (*figures.Result, error),
	cfg harness.GEMMConfig, keep func(int64) bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		pts, err := harness.GEMMSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			meanPointErrors(b, pts, keep)
		}
	}
	_ = gen
}

func quickGEMMConfig(m arch.Machine, batched bool, route node.Route, reps harness.RepsPolicy) harness.GEMMConfig {
	return harness.GEMMConfig{
		Machine: m, Batched: batched, Route: route, Reps: reps,
		Sizes:   []int64{128, 256, 512, 700, 1024, 2048},
		Options: node.Options{Seed: 20230515},
	}
}

// cachedRegime keeps sizes below the Eq. 4 boundary where the
// expectation holds.
func cachedRegime(n int64) bool { return n <= 800 }

// BenchmarkFig2a: serial GEMM, 1 rep, PCP. The paper's point is that
// the error is LARGE here; the metric records it.
func BenchmarkFig2a(b *testing.B) {
	benchGEMMFig(b, figures.Fig2a,
		quickGEMMConfig(arch.Summit(), false, node.ViaPCP, harness.SingleRep), cachedRegime)
}

// BenchmarkFig2b: serial GEMM, 1 rep, perf_uncore — equally noisy.
func BenchmarkFig2b(b *testing.B) {
	benchGEMMFig(b, figures.Fig2b,
		quickGEMMConfig(arch.Tellico(), false, node.Direct, harness.SingleRep), cachedRegime)
}

// BenchmarkFig3a: adaptive reps shrink the serial error.
func BenchmarkFig3a(b *testing.B) {
	benchGEMMFig(b, figures.Fig3a,
		quickGEMMConfig(arch.Summit(), false, node.ViaPCP, harness.AdaptiveReps), cachedRegime)
}

// BenchmarkFig3b: batched GEMM matches the expectation tightly below
// the Eq. 4 jump.
func BenchmarkFig3b(b *testing.B) {
	benchGEMMFig(b, figures.Fig3b,
		quickGEMMConfig(arch.Summit(), true, node.ViaPCP, harness.AdaptiveReps), cachedRegime)
}

// BenchmarkFig4a/b: the Tellico (perf_uncore) counterparts.
func BenchmarkFig4a(b *testing.B) {
	benchGEMMFig(b, figures.Fig4a,
		quickGEMMConfig(arch.Tellico(), false, node.Direct, harness.AdaptiveReps), cachedRegime)
}

func BenchmarkFig4b(b *testing.B) {
	benchGEMMFig(b, figures.Fig4b,
		quickGEMMConfig(arch.Tellico(), true, node.Direct, harness.AdaptiveReps), cachedRegime)
}

func benchGEMV(b *testing.B, m arch.Machine, route node.Route) {
	cfg := harness.GEMVConfig{
		Machine: m, Route: route, Reps: harness.AdaptiveReps,
		Sizes:   []int64{512, 1280, 4096, 16384, 65536},
		Options: node.Options{Seed: 20230515},
	}
	for i := 0; i < b.N; i++ {
		pts, err := harness.CappedGEMVSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			meanPointErrors(b, pts, nil)
		}
	}
}

// BenchmarkFig5a/b: capped GEMV via PCP and perf_uncore.
func BenchmarkFig5a(b *testing.B) { benchGEMV(b, arch.Summit(), node.ViaPCP) }
func BenchmarkFig5b(b *testing.B) { benchGEMV(b, arch.Tellico(), node.Direct) }

func benchResort(b *testing.B, routine harness.ResortRoutine, prefetch bool, wantRatio float64) {
	cfg := harness.ResortConfig{
		Machine: arch.Summit(), Routine: routine, Prefetch: prefetch,
		GridR: 2, GridC: 4, Route: node.ViaPCP,
		Sizes: []int64{512, 1344}, Runs: 5,
		Options: node.Options{Seed: 20230515},
	}
	for i := 0; i < b.N; i++ {
		pts, err := harness.ResortSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			p := pts[0]
			ratio := float64(p.ExpectedReadBytes) / float64(p.ExpectedWriteBytes)
			b.ReportMetric(ratio, "reads-per-write")
			if wantRatio != 0 && (ratio < wantRatio*0.9 || ratio > wantRatio*1.1) {
				b.Fatalf("expected ratio %.1f, model says %.2f", wantRatio, ratio)
			}
		}
	}
}

// BenchmarkFig6a/b: S1CF loop nest 1 — 1 read/write without prefetch,
// 2 with.
func BenchmarkFig6a(b *testing.B) { benchResort(b, harness.S1CFLoopNest1, false, 1) }
func BenchmarkFig6b(b *testing.B) { benchResort(b, harness.S1CFLoopNest1, true, 2) }

// BenchmarkFig7a/b: S1CF loop nest 2 — 2 reads per write in the
// cache-friendly regime (5 past Eq. 7, see the sweep table).
func BenchmarkFig7a(b *testing.B) { benchResort(b, harness.S1CFLoopNest2, false, 2) }
func BenchmarkFig7b(b *testing.B) { benchResort(b, harness.S1CFLoopNest2, true, 2) }

// BenchmarkFig8: the combined nest — 2 reads per write.
func BenchmarkFig8(b *testing.B) { benchResort(b, harness.S1CFCombined, false, 2) }

// BenchmarkFig9a/b: S2CF — 1 read per write (2 with prefetch).
func BenchmarkFig9a(b *testing.B) { benchResort(b, harness.S2CFRoutine, false, 1) }
func BenchmarkFig9b(b *testing.B) { benchResort(b, harness.S2CFRoutine, true, 2) }

// BenchmarkFig10: the 16-node, 4×8-grid bandwidth comparison.
func BenchmarkFig10(b *testing.B) {
	var rows []harness.Fig10Row
	for i := 0; i < b.N; i++ {
		rows = harness.Fig10(arch.Summit(), []int64{1344, 2016})
	}
	for _, r := range rows {
		b.ReportMetric(r.BandwidthGBs, fmt.Sprintf("%s-N%d-GB/s", r.Routine, r.N))
	}
}

// BenchmarkFig11: the full multi-component FFT profile.
func BenchmarkFig11(b *testing.B) {
	var res *figures.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Fig11(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Table.Rows)), "samples")
}

// BenchmarkFig12: the QMCPACK-analogue profile.
func BenchmarkFig12(b *testing.B) {
	var res *figures.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = figures.Fig12(quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Table.Rows)), "samples")
}

// BenchmarkTableI / BenchmarkTableII: event inventory generation.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.TableI(quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.TableII(quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

type nullMem struct{}

func (nullMem) MemRead(addr, bytes int64)  {}
func (nullMem) MemWrite(addr, bytes int64) {}

// BenchmarkCacheSimAccess: exact-simulator throughput (accesses/op).
func BenchmarkCacheSimAccess(b *testing.B) {
	h := cache.New(cache.Config{Socket: arch.Summit().Socket, ActiveCores: []int{0}}, nullMem{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, trace.Access{Addr: int64(i%1000000) * 8, Size: 8, Kind: trace.Load})
	}
}

// BenchmarkGEMMExactSim: the line-level simulation of one N=96 GEMM.
func BenchmarkGEMMExactSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		soc := arch.Summit().Socket
		h := cache.New(cache.Config{Socket: soc, ActiveCores: []int{0}}, nullMem{})
		nest := kernels.GEMMNest(trace.NewAddressSpace(), "g", 96)
		nest.Execute(0, h)
		h.Drain()
	}
}

// BenchmarkGEMMModel: the analytic engine's cost for one prediction.
func BenchmarkGEMMModel(b *testing.B) {
	ctx := model.Batched(arch.Summit())
	for i := 0; i < b.N; i++ {
		model.GEMM(ctx, 2048)
	}
}

// BenchmarkFFT1D: the mixed-radix FFT at the paper's N=1344.
func BenchmarkFFT1D(b *testing.B) {
	rng := xrand.New(1)
	x := make([]complex128, 1344)
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	b.SetBytes(1344 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.Forward(x)
	}
}

// BenchmarkEventSetReadDirect: latency of one perf_uncore read.
func BenchmarkEventSetReadDirect(b *testing.B) {
	benchEventSetRead(b, node.Direct)
}

// BenchmarkEventSetReadPCP: latency of one read through the daemon —
// the indirection cost the paper accepts for unprivileged access.
func BenchmarkEventSetReadPCP(b *testing.B) {
	benchEventSetRead(b, node.ViaPCP)
}

func benchEventSetRead(b *testing.B, route node.Route) {
	tb, err := node.NewTestbed(arch.Tellico(), 1, node.Options{DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	lib, _, err := tb.NewLibrary()
	if err != nil {
		b.Fatal(err)
	}
	es := lib.NewEventSet()
	if err := es.AddAll(tb.NestEventNames(route)...); err != nil {
		b.Fatal(err)
	}
	if err := es.Start(); err != nil {
		b.Fatal(err)
	}
	defer es.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := es.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedFFT: the full 8-rank numeric pipeline.
func BenchmarkDistributedFFT(b *testing.B) {
	g := fft.Grid{N: 32, R: 2, C: 4}
	rng := xrand.New(2)
	global := make([]complex128, g.N*g.N*g.N)
	for i := range global {
		global[i] = complex(rng.Float64(), rng.Float64())
	}
	slabs := make([][]complex128, g.Ranks())
	for id := 0; id < g.Ranks(); id++ {
		i, j := g.RankCoords(id)
		slabs[id] = fft.LocalSlab(g, global, i, j)
	}
	b.SetBytes(int64(len(global)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm := mpi.New(g.Ranks(), nil, nil, nil)
		comm.Run(func(r *mpi.Rank) {
			local := append([]complex128(nil), slabs[r.ID()]...)
			fft.Distributed3D(g, r, local)
		})
	}
}

// --- serving-tier micro-benchmarks ------------------------------------------

// BenchmarkPDUFetchRespEncodeDecode: one 16-value fetch response through
// the wire codec — the per-request CPU cost of the serving path. Uses
// the buffer-reusing Append/Into spellings the serving loops run on;
// steady state is allocation-free.
func BenchmarkPDUFetchRespEncodeDecode(b *testing.B) {
	res := pcp.FetchResult{Timestamp: 123456789}
	for i := 0; i < 16; i++ {
		res.Values = append(res.Values, pcp.FetchValue{PMID: uint32(i + 1), Status: pcp.StatusOK, Value: uint64(i) << 32})
	}
	var buf []byte
	var dec pcp.FetchResult
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = pcp.AppendFetchResp(buf[:0], res)
		if err := pcp.DecodeFetchRespInto(buf, &dec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDUNamesEncodeDecode: the name-table exchange (once per
// client, amortized away by the proxy's cache).
func BenchmarkPDUNamesEncodeDecode(b *testing.B) {
	var entries []pcp.NameEntry
	for i := 0; i < 32; i++ {
		entries = append(entries, pcp.NameEntry{PMID: uint32(i + 1),
			Name: fmt.Sprintf("perfevent.hwcounters.nest_mba%d_imc.PM_MBA%d_READ_BYTES.value.cpu87", i%8, i%8)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := pcp.AppendNamesResp(nil, entries)
		if _, err := pcp.DecodeNamesResp(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyFetchCoalesced: steady-state fan-out serving — a client
// fetch answered from the pmproxy coalescing cache, no upstream round
// trip. Compare with BenchmarkEventSetReadPCP (every read hits the
// daemon) for the multiplexing win; the coalescing ratio is reported.
func BenchmarkProxyFetchCoalesced(b *testing.B) {
	tb, err := node.NewTestbed(arch.Tellico(), 1, node.Options{DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	p := pmproxy.New(pmproxy.Config{
		Upstream: tb.PMCDAddr,
		Clock:    tb.Clock,
		Interval: tb.Machine.Noise.PMCDSampleInterval,
	})
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	c, err := pcp.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	pmids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := c.Fetch(pmids); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fetch(pmids); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(p.Stats().CoalescingRatio(), "coalescing-ratio")
}

// BenchmarkArchiveAppend: pmlogger's recording hot path — one fetch
// result delta-encoded into the archive ring.
func BenchmarkArchiveAppend(b *testing.B) {
	var names []pcp.NameEntry
	for i := 0; i < 16; i++ {
		names = append(names, pcp.NameEntry{PMID: uint32(i + 1), Name: fmt.Sprintf("m%d", i)})
	}
	a, err := archive.New(names, archive.Options{MaxBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	res := pcp.FetchResult{}
	for i := 0; i < 16; i++ {
		res.Values = append(res.Values, pcp.FetchValue{PMID: uint32(i + 1), Status: pcp.StatusOK})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Timestamp = int64(i+1) * 10_000_000
		for j := range res.Values {
			res.Values[j].Value += uint64(64 * (j + 1))
		}
		if err := a.Append(res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := a.Stats()
	if st.Samples > 0 {
		b.ReportMetric(float64(st.EncodedBytes)/float64(st.Samples), "B/sample")
	}
}

// BenchmarkMetricQLParse: the derived-metrics expression front end —
// lexing and parsing the standard total-bandwidth expression.
func BenchmarkMetricQLParse(b *testing.B) {
	const src = "sum(rate(nest.mba*.read_bytes)) + sum(rate(nest.mba*.write_bytes))"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := metricql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricQLEval: one fresh-interval evaluation of the total-
// bandwidth query over a live daemon connection — the per-sample cost a
// derived event adds to a profile loop (fetch + counter-state advance +
// memoized rate/sum evaluation).
func BenchmarkMetricQLEval(b *testing.B) {
	tb, err := node.NewTestbed(arch.Summit(), 1, node.Options{Seed: 1, DisableNoise: true})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	client, err := pcp.Dial(tb.PMCDAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	names, err := client.Names()
	if err != nil {
		b.Fatal(err)
	}
	eng := metricql.NewEngine(client)
	eng.AliasAll(metricql.NestAliases(names))
	q, err := eng.Query("sum(rate(nest.mba*.read_bytes)) + sum(rate(nest.mba*.write_bytes))")
	if err != nil {
		b.Fatal(err)
	}
	step := tb.Machine.Noise.PMCDSampleInterval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Clock.Advance(step) // next daemon sample: every eval is a fresh interval
		if _, err := eng.EvalAll(q); err != nil {
			b.Fatal(err)
		}
	}
}
