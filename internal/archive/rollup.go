package archive

import (
	"fmt"
	"sort"
)

// Rollup query path: answering floors and windows from rollup buckets
// instead of raw rows.
//
// Exactness contract. A tier's retained buckets hold adjacent samples
// at their facing edges (buckets are only evicted from the front), so
// the raw counter step across a bucket boundary is exactly
// pcp.CounterDelta(prev.Last, next.First) even when the counter wrapped
// there, and the steps inside a bucket are pre-summed (as integers) in
// Cols[c].Delta. A rate over a window whose edges do not split a
// bucket's sample span is therefore bit-for-bit the same sum of
// wrap-corrected steps the raw path computes. When a window edge does
// split a bucket, the bucket's Delta is weighted by the window's
// fractional overlap with the bucket's sample span — the documented
// approximation bound: the error is at most that one edge bucket's
// Delta, i.e. one bucket width of resolution per window edge.

// minBucketsPerWindow is the resolution-selection rule, and it bounds
// rollup-resolution requests only: SelectResolution picks a rollup tier
// for a window only if at least this many of its buckets fit, so
// edge-bucket approximation error stays under ~2/minBuckets of the
// window. It is an accuracy bound, not an optimisation: a smaller value
// trades error for speed and a larger one only reads finer tiers. A raw
// window reads the whole buckets inside it of any tier, at no cost in
// accuracy, and needs no such bound.
const minBucketsPerWindow = 4

// FloorAt returns the newest sample at the given resolution with
// timestamp <= t: the raw floor for ResRaw, or a row synthesized from
// the newest rollup bucket whose last sample is <= t (timestamped at
// that sample, valued at the bucket's Last aggregates).
func (a *Archive) FloorAt(res Resolution, t int64) (Sample, bool) {
	r, ok := a.floorAt(res, t)
	if !ok || r.vals != nil {
		return Sample{Timestamp: r.ts, Values: r.vals}, ok
	}
	row := Sample{Timestamp: r.ts, Values: make([]uint64, len(r.cols))}
	for c := range row.Values {
		row.Values[c] = r.value(c)
	}
	return row, true
}

// floorAt is FloorAt reading the row where it is stored.
func (a *Archive) floorAt(res Resolution, t int64) (rowRef, bool) {
	if res == ResRaw {
		return a.floor(t)
	}
	tr := a.snap.Load().tier(int64(res))
	if tr == nil {
		return rowRef{}, false
	}
	i := sort.Search(tr.count(), func(i int) bool { return tr.at(i).LastTS > t }) - 1
	if i < 0 {
		return rowRef{}, false
	}
	return rowRef{ts: tr.at(i).LastTS, cols: tr.at(i).Cols}, true
}

// WindowAgg is the aggregate of one metric over one time window at one
// resolution — what a windowed metricql function needs, without the
// rows.
type WindowAgg struct {
	Resolution Resolution
	Count      int     // samples in the window (bucket counts for rollups)
	Sum        float64 // Σ float64(value)
	Min, Max   uint64
	Delta      float64 // wrap-corrected increase over the window
	Seconds    float64 // window length in seconds
}

// WindowAt aggregates the metric over the half-open window [t0, t1) at
// one resolution (SelectResolution picks the coarsest that satisfies a
// window). Raw windows aggregate rows with t0 <= ts < t1; rollup
// windows aggregate every bucket whose nominal range [Start, Start+res)
// intersects [t0, t1) — a window whose edges align with bucket
// boundaries covers its buckets exactly, so the rollup answer equals
// the raw answer; an unaligned edge over-includes at most one bucket's
// worth of samples per side (the documented bound). Both are one fold
// merging the per-column summaries of the buckets, blocks and cut
// halves they cover, so Sum adds partial sums: equal to a row-by-row
// sum up to float re-association, and bit-equal while every partial sum
// is an integer below 2^53. Delta is reported only when Count > 0.
func (a *Archive) WindowAt(res Resolution, pmid uint32, t0, t1 int64) (WindowAgg, error) {
	c, ok := a.col[pmid]
	if !ok {
		return WindowAgg{}, fmt.Errorf("%w: %d", ErrNoPMID, pmid)
	}
	var p plan
	if err := a.planWindow(&p, a.snap.Load(), res, t0, t1); err != nil {
		return WindowAgg{}, err
	}
	return p.fold(c)
}

// planWindow plans the window [t0, t1) at res on snapshot s into p. At
// a rollup tier it is the buckets whose range [Start, Start+res) meets
// it, stepped into from the bucket before and on to the one after.
func (a *Archive) planWindow(p *plan, s *snapshot, res Resolution, t0, t1 int64) error {
	if t1 <= t0 {
		return fmt.Errorf("archive: bad window [%d, %d]", t0, t1)
	}
	p.snap, p.res, p.t0, p.t1, p.n = s, res, t0, t1, 0
	if res == ResRaw {
		return a.rawWindow(p)
	}
	t := s.tier(int64(res))
	if t == nil {
		return fmt.Errorf("%w: %v", ErrNoTier, res)
	}
	i := t.search(t0, t.res)
	if i > 0 {
		p.add(run{kind: runAt, b: t.at(i - 1)})
	}
	j := max(i, t.search(t1, 1))
	p.tier = t
	p.add(run{kind: runBuckets, lo: int64(i), hi: int64(j)})
	if j < t.count() {
		p.add(run{kind: runTo, b: t.at(j)})
	}
	return nil
}

// SelectResolution picks the coarsest tier whose buckets are fine
// enough for the window — at least minBucketsPerWindow buckets fit in
// (t1 - t0) — and whose retained history covers t0; raw wins when no
// rollup qualifies. A tier also qualifies on coverage when the window
// starts before *all* retained data (everything clamps the same way).
func (a *Archive) SelectResolution(t0, t1 int64) Resolution {
	return a.snap.Load().selectResolution(t0, t1)
}

func (s *snapshot) selectResolution(t0, t1 int64) Resolution {
	window := t1 - t0
	if window <= 0 {
		return ResRaw
	}
	oldestAny := int64(0)
	haveAny := false
	if first, _, ok := s.rawSpan(); ok {
		oldestAny, haveAny = first, true
	}
	for i := range s.tiers {
		t := &s.tiers[i]
		if t.count() > 0 {
			if f := t.at(0).FirstTS; !haveAny || f < oldestAny {
				oldestAny, haveAny = f, true
			}
		}
	}
	for i := len(s.tiers) - 1; i >= 0; i-- {
		t := &s.tiers[i]
		if t.count() == 0 || t.res*minBucketsPerWindow > window {
			continue
		}
		if t.at(0).FirstTS <= t0 || (haveAny && t.at(0).FirstTS <= oldestAny) {
			return Resolution(t.res)
		}
	}
	return ResRaw
}
