package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// sizes are the knobs the schema test shrinks; a real run uses
// fullSizes and only the window length follows -seconds.
type sizes struct {
	windows      int           // measured windows per run
	window       time.Duration // length of one
	warmup       time.Duration
	traced       time.Duration // traced pass
	paced        time.Duration // one paced rate step
	ladderCalls  int           // timed calls per ladder row
	setupBudget  time.Duration // keep repeating set-up until this much is spent...
	setupMin     int           // ...but at least this often
	clusterNodes int
	archiveRows  int // preloaded rows
	panelSteps   int // 1 s steps per panel refresh
}

func fullSizes(seconds int, trace bool) sizes {
	s := sizes{
		windows:      10,
		window:       time.Duration(seconds) * time.Second / 10,
		warmup:       2 * time.Second,
		ladderCalls:  2048,
		setupBudget:  1500 * time.Millisecond,
		setupMin:     3,
		clusterNodes: 16,
		archiveRows:  1_000_000,
		panelSteps:   240,
	}
	if trace {
		// A traced run spends its seconds on three passes: untraced
		// baseline, traced, and (proxy_fanout only) three paced steps.
		s.window = time.Duration(seconds) * time.Second / 20
		s.traced = time.Duration(seconds) * time.Second / 4
		s.paced = time.Duration(seconds) * time.Second / 5
	}
	return s
}

// worker is one closed-loop generator: prep builds the next request
// (untimed), op is the timed call the caller waits for, verify checks
// the reply (untimed). All three run on the worker's own goroutine.
type worker struct {
	prep   func()
	op     func() error
	verify func() error
	ctx    *opCtx
}

// stack is one assembled system under test with its generators.
type stack struct {
	workers     []worker
	valuesPerOp int
	// background runs beside the workers for the length of a pass (the
	// proxy_fanout clock ticker, the archive_mixed writer); nil if none.
	background func(stop <-chan struct{})
	// counts returns the layers' cumulative exported counters.
	counts func() map[string]float64
	// finish runs end-of-run verification that needs the whole run.
	finish func() error
	// ladder measures this workload's per-layer rows; pass holds what
	// the untraced and traced passes found.
	ladder func(l *ladder, pass passInfo) error
	close  func()
}

type passInfo struct {
	p50us, opsPerS float64
	counts         map[string]float64 // stack.counts deltas over the untraced pass
	spans          []span
}

// ns32 stores a latency in 32 bits of nanoseconds, which saturate at
// 4.29 s — far beyond any op here.
func ns32(d time.Duration) uint32 { return uint32(min(max(d, 0), time.Duration(^uint32(0)))) }

// latReserve is how many latencies a recorder can hold: 3 M ops/s per
// worker over a 20 s run, forty times today's fastest workload.
const latReserve = 1 << 26

// recorder collects one worker's op latencies and the index at which
// each measured window ended. The samples live outside the Go heap, in
// an anonymous mapping whose pages cost nothing until touched: the live
// heap sets the collector's pace, and the collector's pace sets the tail
// of the system under test — with ten million samples on the heap,
// proxy_fanout's p99 read 90 µs instead of 145 µs.
type recorder struct {
	start  time.Time // samples completing before this are warm-up
	window time.Duration
	next   time.Time // end of the window being filled
	mem    []byte    // the mapping behind lat
	lat    []uint32  // ns
	bounds []int     // len(lat) at the end of each finished window
	failed int
	err    error // first failure
}

func newRecorder(start time.Time, window time.Duration, windows int) (*recorder, error) {
	mem, err := syscall.Mmap(-1, 0, 4*latReserve, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping the latency buffer: %w", err)
	}
	return &recorder{start: start, window: window, next: start.Add(window), mem: mem,
		lat:    unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), latReserve)[:0],
		bounds: make([]int, 0, windows)}, nil
}

func (r *recorder) free() { syscall.Munmap(r.mem) }

// add files one finished op under the window it completed in. A failed
// op counts as failed whenever it happened and adds to no latency figure.
func (r *recorder) add(done time.Time, d time.Duration, err error) {
	if err != nil {
		r.failed++
		if r.err == nil {
			r.err = err
		}
		return
	}
	if done.Before(r.start) {
		return
	}
	for len(r.bounds) < cap(r.bounds) && !done.Before(r.next) {
		r.bounds = append(r.bounds, len(r.lat))
		r.next = r.next.Add(r.window)
	}
	if len(r.bounds) == cap(r.bounds) || len(r.lat) == cap(r.lat) {
		return // past the last window (or, never yet, out of room)
	}
	r.lat = append(r.lat, ns32(d))
}

// windowLat returns window k's latencies. A window the worker never saw
// the end of (one op outlasted it) ends where the samples end.
func (r *recorder) windowLat(k int) []uint32 {
	at := func(k int) int {
		if k < len(r.bounds) {
			return r.bounds[k]
		}
		return len(r.lat)
	}
	if k == 0 {
		return r.lat[:at(0)]
	}
	return r.lat[at(k-1):at(k)]
}

// do runs one op: untimed preparation, the timed call (a span while
// this op is traced), untimed verification.
func (w *worker) do() (t0 time.Time, d time.Duration, err error) {
	if w.prep != nil {
		w.prep()
	}
	w.ctx.seq++
	t0 = time.Now()
	sp := w.ctx.beginAt(t0)
	err = w.op()
	d = time.Since(t0)
	w.ctx.endAt("op", sp, t0.Add(d))
	if err == nil {
		err = w.verify()
	}
	return t0, d, err
}

// drive runs body once per worker, each on its own goroutine, with the
// stack's background load beside them, and returns when all are done.
func drive(st *stack, body func(i int, w *worker)) {
	stop := make(chan struct{})
	var bg, wg sync.WaitGroup
	if st.background != nil {
		bg.Add(1)
		go func() { defer bg.Done(); st.background(stop) }()
	}
	for i := range st.workers {
		wg.Add(1)
		go func(i int) { defer wg.Done(); body(i, &st.workers[i]) }(i)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
}

// passResult is what one closed-loop pass measured. Every figure is a
// list of per-window values, or a single value for the run as a whole
// when it is coarse.
type passResult struct {
	p50us, p99us, opsPerS  []float64
	cpuUSPerOp, allocPerOp []float64
	samples                int // ops in the smallest window
	// coarse: a window held fewer than a thousand ops — too few for a
	// p99 of its own, and so few that whole ops straddling its edges
	// quantize every per-window figure. The run is then read as one
	// window, and its tail at tailQ, the highest quantile that still has
	// ten samples beyond it.
	coarse            bool
	tailQ             float64
	peakRSSMiB        float64 // high-water mark when the last op ended
	attempted, failed int
	err               error
	counts            map[string]float64 // layer counter deltas over the whole pass
}

// runClosed drives the stack's workers closed-loop for warmup plus
// windows×window and reports per-window figures.
func runClosed(st *stack, warmup, window time.Duration, windows int) (*passResult, error) {
	start := time.Now().Add(warmup)
	end := start.Add(time.Duration(windows) * window)
	// Layer counters are read with the stack at rest, before the first op
	// and after the last, so that counts which must agree exactly do.
	res := &passResult{}
	var before map[string]float64
	if st.counts != nil {
		before = st.counts()
	}

	// The coordinator samples process-wide figures at window boundaries
	// and ends the pass.
	var stop atomic.Bool
	cpu := make([]time.Duration, windows+1)
	alloc := make([]uint64, windows+1)
	go func() {
		for k := 0; k <= windows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
			cpu[k] = cpuTime()
			alloc[k], _ = heapAllocs()
		}
		time.Sleep(time.Until(end.Add(time.Millisecond))) // let in-flight ops land in no window
		stop.Store(true)
	}()
	recs := make([]*recorder, len(st.workers))
	for i := range recs {
		var err error
		if recs[i], err = newRecorder(start, window, windows); err != nil {
			return nil, err
		}
		defer recs[i].free()
	}
	drive(st, func(i int, w *worker) {
		for !stop.Load() {
			t0, d, err := w.do()
			recs[i].add(t0.Add(d), d, err)
		}
	})

	var err error
	if res.peakRSSMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	if st.counts != nil {
		res.counts = st.counts()
		for k, v := range before {
			res.counts[k] -= v
		}
	}
	for _, r := range recs {
		res.attempted += len(r.lat) + r.failed
		res.failed += r.failed
		if res.err == nil {
			res.err = r.err
		}
	}

	figures := func(lat []uint32, tailQ float64, span time.Duration, cpu time.Duration, alloc uint64) {
		slices.Sort(lat)
		n := float64(len(lat))
		res.p50us = append(res.p50us, quantileU32(lat, 0.50)/1e3)
		res.p99us = append(res.p99us, quantileU32(lat, tailQ)/1e3)
		res.opsPerS = append(res.opsPerS, n/span.Seconds())
		res.cpuUSPerOp = append(res.cpuUSPerOp, float64(cpu.Microseconds())/n)
		res.allocPerOp = append(res.allocPerOp, float64(alloc)/n)
	}
	var pooled []uint32
	res.samples = -1
	for k := 0; k < windows; k++ {
		var lat []uint32
		for _, r := range recs {
			lat = append(lat, r.windowLat(k)...)
		}
		if res.samples < 0 || len(lat) < res.samples {
			res.samples = len(lat)
		}
		pooled = append(pooled, lat...)
		if len(lat) > 0 {
			figures(lat, 0.99, window, cpu[k+1]-cpu[k], alloc[k+1]-alloc[k])
		}
	}
	if len(pooled) == 0 {
		return nil, fmt.Errorf("no op completed in %v", end.Sub(start))
	}
	if res.samples < tailSamples*100 {
		res.coarse = true
		res.tailQ = max(0.5, min(0.99, 1-tailSamples/float64(len(pooled))))
		res.p50us, res.p99us, res.opsPerS, res.cpuUSPerOp, res.allocPerOp = nil, nil, nil, nil, nil
		figures(pooled, res.tailQ, end.Sub(start), cpu[windows]-cpu[0], alloc[windows]-alloc[0])
	}
	return res, nil
}

// runTraced is the traced pass: the same closed loop for dur, with the
// tracer on and every worker tracing about every other op. The two
// halves run interleaved through the same seconds, so the difference of
// their medians is the wrappers' cost and not the box's drift. Which
// ops are traced is a hash of the op's number: plain alternation falls
// in step with papi_read's every-4th-read resample and reads it as
// tracing overhead.
func runTraced(st *stack, tr *tracer, dur time.Duration) (tracedP50us, plainP50us float64, res *passResult) {
	res = &passResult{}
	end := time.Now().Add(dur)
	lat := make([][2][]uint32, len(st.workers))
	var mu sync.Mutex
	tr.on.Store(true)
	drive(st, func(i int, w *worker) {
		failed := 0
		var first error
		for time.Now().Before(end) || len(lat[i][0]) == 0 || len(lat[i][1]) == 0 {
			traced := (w.ctx.seq+1)*0x9E3779B97F4A7C15>>63 == 1 // do() begins op seq+1
			w.ctx.skip = !traced
			_, d, err := w.do()
			if err != nil {
				if failed++; first == nil {
					first = err
				}
				continue
			}
			half := &lat[i][0]
			if traced {
				half = &lat[i][1]
			}
			*half = append(*half, ns32(d))
		}
		w.ctx.skip = false
		mu.Lock()
		res.attempted += failed + len(lat[i][0]) + len(lat[i][1])
		res.failed += failed
		if res.err == nil {
			res.err = first
		}
		mu.Unlock()
	})
	tr.on.Store(false)
	var halves [2][]uint32
	for _, l := range lat {
		halves[0] = append(halves[0], l[0]...)
		halves[1] = append(halves[1], l[1]...)
	}
	for h := range halves {
		slices.Sort(halves[h])
	}
	return quantileU32(halves[1], 0.5) / 1e3, quantileU32(halves[0], 0.5) / 1e3, res
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// quantileU32 reads quantile q off sorted values (nearest rank).
func quantileU32(sorted []uint32, q float64) float64 {
	i := int(q * float64(len(sorted)))
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// iqr is the distance between the first and third quartile (the same
// exclusive method as Python's statistics.quantiles(n=4)).
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.75) - at(0.25)
}

// cpuTime is the process's user+system CPU so far: client and servers
// share the process, so this is the whole path's CPU bill.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the cumulative heap allocation in bytes and objects
// (MemStats.TotalAlloc and Mallocs without the stop-the-world).
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// workers is W = min(nproc, 4), recorded in the output.
func workerCount() int { return min(runtime.NumCPU(), maxWorkers) }
