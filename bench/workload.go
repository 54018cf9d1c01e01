package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the schema test holds the two together.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"ops_per_s", "1/s"},
	{"values_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists every per-layer metric. A traced run prints all of
// them; a layer that is not on the workload's path reads 0.
var perLayer = []metricDef{
	{"papi.read_direct_ns", "ns"},
	{"papi.self_us", "us"},
	{"pcp.client_rt_v1_us", "us"},
	{"pcp.client_rt_v3_us", "us"},
	{"pcp.client_batch_rt_us", "us"},
	{"pcp.codec_resp_ns", "ns"},
	{"pcp.codec_batch_ns", "ns"},
	{"pcp.frame_tagged_ns", "ns"},
	{"pcp.frame_wide_ns", "ns"},
	{"pcp.daemon_fetch_hit_ns", "ns"},
	{"pcp.daemon_resample_us", "us"},
	{"pcp.metric_reads", "count"},
	{"pcp.client_allocs_per_rt", "count"},
	{"pmproxy.fetch_hit_ns", "ns"},
	{"pmproxy.fetch_miss_us", "us"},
	{"pmproxy.batch_hit_ns", "ns"},
	{"pmproxy.self_us", "us"},
	{"pmproxy.admit_ns", "ns"},
	{"pmproxy.hit_ratio", "ratio"},
	{"pmproxy.upstream_fetches", "count"},
	{"pmproxy.upstream_batch_rts", "count"},
	{"pmproxy.stale_serves", "count"},
	{"pmproxy.sheds", "count"},
	{"cluster.root_fetch_inproc_us", "us"},
	{"cluster.leaf_fed_fetch_us", "us"},
	{"cluster.straggler_us", "us"},
	{"cluster.edge_attempts", "count"},
	{"cluster.edge_hedges", "count"},
	{"cluster.edge_retries", "count"},
	{"cluster.edge_failures", "count"},
	{"nest.readall_ns", "ns"},
	{"mem.readinto_ns", "ns"},
	{"mem.pending_buckets", "count"},
	{"archive.append_ns", "ns"},
	{"archive.window_raw_us", "us"},
	{"archive.window_rollup_ns", "ns"},
	{"archive.floor_ns", "ns"},
	{"archive.samples_100_ns", "ns"},
	{"archive.ingest_achieved_share", "ratio"},
	{"archive.rows_folded", "count"},
	{"archive.encoded_bytes_per_row", "B"},
	{"archive.read_p99_compacting_us", "us"},
	{"metricql.parse_bind_us", "us"},
	{"metricql.eval_step_us", "us"},
	{"metricql.groupby_eval_us", "us"},
	{"loadgen.rate25_p50_us", "us"},
	{"loadgen.rate25_p99_us", "us"},
	{"loadgen.rate50_p50_us", "us"},
	{"loadgen.rate50_p99_us", "us"},
	{"loadgen.rate75_p50_us", "us"},
	{"loadgen.rate75_p99_us", "us"},
	{"loadgen.gen_late_p99_us", "us"},
	{"budget.closure_papi_read", "ratio"},
	{"budget.closure_cluster_scatter", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// metric is one reported value. IQR is the inter-quartile spread of the
// N per-window (or per-repeat) values the median was taken over: the
// noise floor every figure carries.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	IQR   float64 `json:"iqr"`
	N     int     `json:"n"`
}

// result is one workload run.
type result struct {
	Workload  string `json:"workload"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Error     string `json:"error,omitempty"` // first failure, for diagnosis
	Samples   int    `json:"samples_per_window"`
	// TailQ is the quantile op_p99_us holds when the run is coarse (see
	// passResult); 0 when every window has a p99 of its own.
	TailQ   float64  `json:"tail_quantile,omitempty"`
	Metrics []metric `json:"metrics"`
}

func medianOf(def metricDef, v []float64) metric {
	return metric{Name: def.name, Unit: def.unit, Value: median(v), IQR: iqr(v), N: len(v)}
}

// builders assemble each workload's stack from the packages' public
// constructors (testutil's helpers need a *testing.T).
var builders = map[string]func(p *plan, sz sizes, w int, tr *tracer) (*stack, error){
	wlPapiRead:       buildPapiRead,
	wlProxyFanout:    buildProxyFanout,
	wlClusterScatter: buildClusterScatter,
	wlArchiveMixed:   buildArchiveMixed,
}

// bigSetup is the set-up time from which a discarded stack is worth
// freeing at once (archive_mixed's million rows).
const bigSetup = 100 * time.Millisecond

// setupPause separates the repeats of a small set-up, so that they
// sample half a second of the box's moods and not its first 50 ms.
const setupPause = 5 * time.Millisecond

// setupMax caps the set-up repeats of a stack that assembles in under
// a millisecond.
const setupMax = 101

// runWorkload sets the named workload up, drives it and reports: the
// end-to-end metrics of an untraced run, or with trace the per-layer
// metrics of a run that adds the traced pass, the paced pass and the
// ladder.
func runWorkload(name string, seed uint64, sz sizes, trace bool, outDir string) (*result, error) {
	build := builders[name]
	if build == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	p := newPlan(seed)
	tr := newTracer(trace)
	w := workerCount()

	// Set-up is timed on its own, several times over: one 15 ms assembly
	// is too noisy a figure to guard.
	var st *stack
	var setups []float64
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		var err error
		if st, err = build(p, sz, w, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		spent += d
		if len(setups) >= sz.setupMin && (spent >= sz.setupBudget || len(setups) >= setupMax) {
			break
		}
		st.close()
		if d > bigSetup {
			// So that peak RSS is one stack's, not the repeats' sum. A
			// small stack is left to the collector: returning its pages
			// makes the next set-up fault them back in, or not, and a
			// millisecond set-up then reads ±35 %.
			runtime.GC()
			debug.FreeOSMemory()
		} else {
			time.Sleep(setupPause)
		}
	}
	defer st.close()

	pass, err := runClosed(st, sz.warmup, sz.window, sz.windows)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Attempted: pass.attempted, Failed: pass.failed,
		Samples: pass.samples, TailQ: pass.tailQ}
	fail := func(err error) {
		if err != nil && res.Error == "" {
			res.Error = err.Error()
		}
	}
	fail(pass.err)
	// finish checks what only the whole run can show. It runs before the
	// ladder, which reuses the stack and would disturb the totals.
	finish := func() {
		if st.finish == nil {
			return
		}
		res.Attempted++
		if err := st.finish(); err != nil {
			res.Failed++
			fail(err)
		}
	}

	if !trace {
		finish()
		values := slices.Clone(pass.opsPerS)
		for i := range values {
			values[i] *= float64(st.valuesPerOp)
		}
		for i, v := range [][]float64{setups, pass.p50us, pass.p99us, pass.opsPerS, values,
			pass.cpuUSPerOp, pass.allocPerOp, {pass.peakRSSMiB}} {
			res.Metrics = append(res.Metrics, medianOf(endToEnd[i], v))
		}
	} else {
		l := &ladder{calls: sz.ladderCalls, out: make(map[string]float64), tr: tr}
		info := passInfo{p50us: median(pass.p50us), opsPerS: median(pass.opsPerS), counts: pass.counts}

		tracedP50, plainP50, traced := runTraced(st, tr, sz.traced)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		fail(traced.err)
		info.spans = tr.spans()
		l.out["trace.overhead_share"] = (tracedP50 - plainP50) / plainP50
		if err := writeTrace(outDir, name, seed, info.spans); err != nil {
			return nil, err
		}

		finish()
		if err := st.ladder(l, info); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for _, def := range perLayer {
			v := l.out[def.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s is %v", def.name, v)
			}
			res.Metrics = append(res.Metrics, metric{Name: def.name, Unit: def.unit, Value: v, N: 1})
			delete(l.out, def.name)
		}
		for k := range l.out {
			return nil, fmt.Errorf("ladder produced %q, which perLayer does not name", k)
		}
	}

	res.Correct = res.Failed == 0
	return res, nil
}
