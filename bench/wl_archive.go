package main

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"papimc/internal/archive"
	"papimc/internal/metricql"
	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

const (
	archiveCols = 16
	rowStep     = int64(simtime.Millisecond) // recording cadence
	panelStep   = int64(simtime.Second)      // a panel refresh evaluates once per second of history
	minute      = 60 * panelStep
	// The writer appends 20 k rows a second in bursts of 20 on a 1 ms
	// tick: 20 simulated seconds of history per second of wall time.
	writerTick  = time.Millisecond
	writerBurst = 20
	// writerGrace is how long after a pass ends the writer may still
	// catch up with its schedule; rows it has not appended by then count
	// against archive.ingest_achieved_share.
	writerGrace = 100 * time.Millisecond
)

// rowValue is the closed form every archived row follows: column j of
// row i, which is stamped i ms. Every panel value can be recomputed
// from it.
func rowValue(i int64, j int) uint64 { return uint64(i) * 64 * uint64(j+1) }

// panelExprs are the four expressions a refresh binds: a 2 s and a
// 200 ms window force the raw tier, 30 s and 600 s the 1 s and 60 s
// rollup tiers.
var panelExprs = [panelQueries]string{
	"sum(rate_over(bench.c*, 2s))",
	"avg_over(bench.c03, 600s)",
	"max_over(bench.c07, 30s)",
	"rate_over(bench.c01, 200ms)",
}

func archiveOptions() archive.Options {
	return archive.Options{
		MaxBytes:     1 << 30, // retention is by age here, not by the ring budget
		Rollups:      []int64{panelStep, minute},
		RawRetention: 300 * panelStep,
	}
}

func newBenchArchive() (*archive.Archive, error) {
	names := make([]pcp.NameEntry, archiveCols)
	for j := range names {
		names[j] = pcp.NameEntry{PMID: uint32(j + 1), Name: fmt.Sprintf("bench.c%02d", j)}
	}
	return archive.New(names, archiveOptions())
}

// rowAppender appends closed-form rows in order.
type rowAppender struct {
	a    *archive.Archive
	next int64
	row  archive.Sample
}

func (r *rowAppender) append() error {
	if r.row.Values == nil {
		r.row.Values = make([]uint64, archiveCols)
	}
	r.row.Timestamp = r.next * rowStep
	for j := range r.row.Values {
		r.row.Values[j] = rowValue(r.next, j)
	}
	r.next++
	return r.a.AppendSample(r.row)
}

// tracedReplay interposes at metricql.Source, under the engine and
// above the archive. It keeps the replay's window pushdown.
type tracedReplay struct {
	rp  *archive.Replay
	ctx *opCtx
}

func (s *tracedReplay) Names() ([]pcp.NameEntry, error) { return s.rp.Names() }

func (s *tracedReplay) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	sp := s.ctx.begin()
	res, err := s.rp.Fetch(pmids)
	s.ctx.end("metricql.Source.Fetch", sp)
	return res, err
}

func (s *tracedReplay) EvalWindow(fn string, pmid uint32, t0, t1 int64) (float64, bool, error) {
	sp := s.ctx.begin()
	v, ok, err := s.rp.EvalWindow(fn, pmid, t0, t1)
	s.ctx.end("metricql.Source.EvalWindow", sp)
	return v, ok, err
}

// buildArchiveMixed assembles analyst panels beside a live writer: a
// preloaded archive with 1 s and 60 s rollups and a running compactor,
// one generator appending at a fixed rate, the others refreshing panels.
func buildArchiveMixed(p *plan, sz sizes, w int, tr *tracer) (*stack, error) {
	a, err := newBenchArchive()
	if err != nil {
		return nil, err
	}
	writer := &rowAppender{a: a}
	for writer.next < int64(sz.archiveRows) {
		if err := writer.append(); err != nil {
			return nil, err
		}
	}
	a.Compact() // fold what the preload left beyond the raw retention
	stopCompactor := a.StartCompactor(time.Millisecond)
	st := &stack{valuesPerOp: sz.panelSteps * panelQueries, close: stopCompactor}

	var due, appended atomic.Int64
	var writeErr atomic.Pointer[error]
	st.background = func(stop <-chan struct{}) {
		tick := time.NewTicker(writerTick)
		defer tick.Stop()
		t0, done := time.Now(), int64(0)
		catchUp := func(until time.Time, deadline time.Time) {
			want := int64(until.Sub(t0)/writerTick) * writerBurst
			due.Add(want - done)
			for ; done < want; done++ {
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				if err := writer.append(); err != nil {
					writeErr.CompareAndSwap(nil, &err)
					return
				}
				appended.Add(1)
			}
		}
		for {
			select {
			case <-stop:
				now := time.Now()
				catchUp(now, now.Add(writerGrace))
				return
			case <-tick.C:
				catchUp(time.Now(), time.Time{})
			}
		}
	}

	readers := max(w-1, 1)
	for i := 0; i < readers; i++ {
		st.workers = append(st.workers, panelWorker(a, p.PanelOrder[i], sz.panelSteps,
			tr.worker(i)))
	}
	st.counts = func() map[string]float64 {
		return map[string]float64{
			"rows_due":            float64(due.Load()),
			"rows_appended":       float64(appended.Load()),
			"archive.rows_folded": float64(a.Stats().Folded),
		}
	}
	st.finish = func() error {
		if e := writeErr.Load(); e != nil {
			return fmt.Errorf("archive_mixed: writer: %w", *e)
		}
		return nil
	}
	st.ladder = func(l *ladder, pass passInfo) error {
		l.take(pass.counts, "archive.rows_folded")
		l.out["archive.ingest_achieved_share"] = pass.counts["rows_appended"] / pass.counts["rows_due"]
		return archiveLadder(l, a, st, sz)
	}
	return st, nil
}

// panelSpan picks the history a refresh covers: the last steps seconds
// up to the newest whole second the archive holds.
func panelSpan(a *archive.Archive, steps int) (start, head int64) {
	_, head, _ = a.Span()
	last := head - head%panelStep
	return last - int64(steps)*panelStep, head
}

// bindPanel starts a refresh: a fresh engine over src with the four
// expressions bound in the given order.
func bindPanel(src metricql.Source, order []int) (eng *metricql.Engine, qs [panelQueries]*metricql.Query, err error) {
	eng = metricql.NewEngine(src)
	for k, q := range order {
		if qs[k], err = eng.Query(panelExprs[q]); err != nil {
			return nil, qs, err
		}
	}
	return eng, qs, nil
}

// panelWorker is one analyst: each op builds a fresh clock, replay and
// engine, binds the four expressions and steps them across the panel.
func panelWorker(a *archive.Archive, order []int, steps int, ctx *opCtx) worker {
	got := make([][panelQueries]float64, steps)
	var start, headBefore int64
	wk := worker{ctx: ctx}
	wk.prep = func() { start, headBefore = panelSpan(a, steps) }
	wk.op = func() error {
		clock := simtime.NewClock()
		eng, qs, err := bindPanel(&tracedReplay{rp: archive.NewReplay(a, clock), ctx: ctx}, order)
		if err != nil {
			return err
		}
		for s := 0; s < steps; s++ {
			clock.AdvanceTo(simtime.Time(start + int64(s+1)*panelStep))
			vals, err := eng.EvalAll(qs[:]...)
			if err != nil {
				return err
			}
			for k, q := range order {
				if got[s][q], err = vals[k].Scalar(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	wk.verify = func() error {
		_, headAfter, _ := a.Span()
		for s := range got {
			t := start + int64(s+1)*panelStep
			if err := checkPanel(got[s], t, headBefore, headAfter); err != nil {
				return fmt.Errorf("archive_mixed: step %d at %d: %w", s, t, err)
			}
		}
		return nil
	}
	return wk
}

// checkPanel recomputes the four panel values at time t from the rows'
// closed form. headBefore and headAfter are the newest timestamps the
// archive held before and after the refresh: the 600 s average takes in
// the 60 s bucket still being written when t is less than a minute
// behind the head, and then it lies between the two closed forms.
func checkPanel(got [panelQueries]float64, t, headBefore, headAfter int64) error {
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }

	sumRate := 0.0
	for j := 0; j < archiveCols; j++ {
		sumRate += float64(rowValue(1, j)) * float64(panelStep/rowStep)
	}
	if !near(got[0], sumRate) {
		return fmt.Errorf("%s = %v, want %v", panelExprs[0], got[0], sumRate)
	}
	if want := float64(rowValue(1, 1)) * float64(panelStep/rowStep); !near(got[3], want) {
		return fmt.Errorf("%s = %v, want %v", panelExprs[3], got[3], want)
	}
	// The 1 s tier's last bucket before t ends at the row before t.
	if want := float64(rowValue(t/rowStep-1, 7)); !near(got[2], want) {
		return fmt.Errorf("%s = %v, want %v", panelExprs[2], got[2], want)
	}
	// The 60 s tier sums whole buckets: every row from the start of the
	// bucket holding t-600s to the end of the bucket holding t, or to
	// the head. The mean of rows [a, b) of a linear column is its value
	// at (a+b-1)/2.
	t0 := max(t-600*panelStep, 0)
	first := (t0 - t0%minute) / rowStep
	end := (t + minute - 1) / minute * minute / rowStep
	mean := func(head int64) float64 {
		b := min(end, head/rowStep+1)
		return float64(rowValue(1, 3)) * float64(first+b-1) / 2
	}
	if lo, hi := mean(headBefore), mean(headAfter); got[1] < lo*(1-1e-9) || got[1] > hi*(1+1e-9) {
		return fmt.Errorf("%s = %v, want within [%v, %v]", panelExprs[1], got[1], lo, hi)
	}
	return nil
}

// archiveLadder measures the archive and the query engine with
// archive_mixed's request shapes.
func archiveLadder(l *ladder, a *archive.Archive, st *stack, sz sizes) error {
	// Appends go to an archive of their own: the live one must keep to
	// what its writer appended.
	fresh, err := newBenchArchive()
	if err != nil {
		return err
	}
	app := &rowAppender{a: fresh}
	l.time("archive.append_ns", func() { l.keep(app.append()) })

	start, head := panelSpan(a, sz.panelSteps)
	last := head - head%panelStep
	const pmid = 4 // bench.c03
	l.time("archive.window_raw_us", func() {
		_, err := a.WindowAt(archive.ResRaw, pmid, last-2*panelStep, last)
		l.keep(err)
	})
	l.time("archive.window_rollup_ns", func() {
		t0 := last - 600*panelStep
		_, err := a.WindowAt(a.SelectResolution(t0, last), pmid, t0, last)
		l.keep(err)
	})
	l.time("archive.floor_ns", func() {
		if _, ok := a.FloorAt(archive.ResRaw, last); !ok {
			l.keep(fmt.Errorf("FloorAt(%d) found no row", last))
		}
	})
	l.time("archive.samples_100_ns", func() {
		rows, err := a.Samples(head-99*rowStep, head)
		if err == nil && len(rows) != 100 {
			err = fmt.Errorf("Samples at the head returned %d rows, want 100", len(rows))
		}
		l.keep(err)
	})

	order := []int{0, 1, 2, 3}
	var clock *simtime.Clock
	var eng *metricql.Engine
	var qs [panelQueries]*metricql.Query
	rebind := func() {
		clock = simtime.NewClock()
		var err error
		eng, qs, err = bindPanel(archive.NewReplay(a, clock), order)
		l.keep(err)
	}
	l.time("metricql.parse_bind_us", rebind)
	if l.err != nil {
		return l.err
	}
	step := 0
	l.timeAfter("metricql.eval_step_us", func() {
		if step++; step > sz.panelSteps {
			step = 1
			rebind() // back to the panel's start, as the next refresh is
		}
		clock.AdvanceTo(simtime.Time(start + int64(step)*panelStep))
	}, func() {
		_, err := eng.EvalAll(qs[:]...)
		l.keep(err)
	})

	// A read at the head while the writer and the compactor run.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); st.background(stop) }()
	lat := make([]float64, 0, l.calls)
	for i := 0; i < l.calls; i++ {
		_, head, _ := a.Span()
		t0 := time.Now()
		_, err := a.Samples(head-99*rowStep, head)
		lat = append(lat, float64(time.Since(t0)))
		l.keep(err)
		time.Sleep(50 * time.Microsecond) // let the writer's ticks interleave
	}
	close(stop)
	<-done
	slices.Sort(lat)
	l.out["archive.read_p99_compacting_us"] = lat[len(lat)*99/100] / 1e3

	s := a.Stats()
	l.out["archive.encoded_bytes_per_row"] = float64(s.EncodedBytes) / float64(s.Samples)
	return l.err
}
