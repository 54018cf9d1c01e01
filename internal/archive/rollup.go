package archive

import (
	"fmt"
	"sort"

	"papimc/internal/pcp"
)

// Rollup query path: answering floors, windows, and rates from rollup
// buckets instead of raw rows.
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

// minBucketsPerWindow is the resolution-selection rule: a rollup tier
// is eligible for a window only if at least this many of its buckets
// fit, so edge-bucket approximation error stays under ~2/minBuckets of
// the window. It is an accuracy bound, not an optimisation: a smaller
// value trades error for speed and a larger one only reads finer tiers.
const minBucketsPerWindow = 4

// Buckets returns the tier's retained buckets whose sample span
// [FirstTS, LastTS] intersects [t0, t1], oldest first. Buckets are
// shared with the published snapshot and must be treated as read-only.
func (a *Archive) Buckets(res Resolution, t0, t1 int64) ([]Bucket, error) {
	s := a.snap.Load()
	t := s.tier(int64(res))
	if t == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoTier, res)
	}
	lo, hi := bucketRange(t, t0, t1)
	out := make([]Bucket, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, *t.at(i))
	}
	return out, nil
}

// bucketRange returns [lo, hi) over the tier's combined bucket list for
// buckets intersecting [t0, t1].
func bucketRange(t *tierSnap, t0, t1 int64) (int, int) {
	n := t.count()
	lo := sort.Search(n, func(i int) bool { return t.at(i).LastTS >= t0 })
	hi := sort.Search(n, func(i int) bool { return t.at(i).FirstTS > t1 })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// rollupDeltaSum computes Σ frac·delta over the tier's buckets and
// boundary segments overlapping [t0, t1].
func rollupDeltaSum(t *tierSnap, c int, t0, t1 int64) float64 {
	lo, hi := bucketRange(t, t0, t1)
	var sum float64
	for i := lo; i < hi; i++ {
		b := t.at(i)
		if b.FirstTS >= t0 && b.LastTS <= t1 {
			sum += float64(b.Cols[c].Delta)
		} else if f := overlapFrac(b.FirstTS, b.LastTS, t0, t1); f > 0 {
			sum += f * float64(b.Cols[c].Delta)
		}
	}
	// Boundary segments between consecutive retained buckets. Start one
	// bucket early: the segment out of a bucket ending before t0 can
	// still overlap the window.
	for i := max(lo-1, 0); i+1 < t.count(); i++ {
		b, nb := t.at(i), t.at(i+1)
		if b.LastTS >= t1 {
			break
		}
		if f := overlapFrac(b.LastTS, nb.FirstTS, t0, t1); f > 0 {
			sum += f * float64(int64(pcp.CounterDelta(b.Cols[c].Last, nb.Cols[c].First)))
		}
	}
	return sum
}

// FloorAt returns the newest sample at the given resolution with
// timestamp <= t: the raw floor for ResRaw, or a row synthesized from
// the newest rollup bucket whose last sample is <= t (timestamped at
// that sample, valued at the bucket's Last aggregates).
func (a *Archive) FloorAt(res Resolution, t int64) (Sample, bool) {
	if res == ResRaw {
		return a.Floor(t)
	}
	s := a.snap.Load()
	tr := s.tier(int64(res))
	if tr == nil || tr.count() == 0 {
		return Sample{}, false
	}
	n := tr.count()
	i := sort.Search(n, func(i int) bool { return tr.at(i).LastTS > t }) - 1
	if i < 0 {
		return Sample{}, false
	}
	return tr.at(i).lastRow(), true
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
// worth of samples per side (the documented bound). Both tiers merge
// the per-column summaries of the blocks or buckets they cover, so Sum
// adds per-block partial sums: equal to a row-by-row sum up to float
// re-association, and bit-equal while every partial sum is an integer
// below 2^53. Delta is reported only when Count > 0.
func (a *Archive) WindowAt(res Resolution, pmid uint32, t0, t1 int64) (WindowAgg, error) {
	c, ok := a.col[pmid]
	if !ok {
		return WindowAgg{}, fmt.Errorf("%w: %d", ErrNoPMID, pmid)
	}
	if t1 <= t0 {
		return WindowAgg{}, fmt.Errorf("archive: bad window [%d, %d]", t0, t1)
	}
	s := a.snap.Load()
	var n int
	var agg ColAgg
	var delta float64
	if res == ResRaw {
		var err error
		if n, agg, delta, err = a.rawWindow(s, c, t0, t1); err != nil {
			return WindowAgg{}, err
		}
	} else {
		t := s.tier(int64(res))
		if t == nil {
			return WindowAgg{}, fmt.Errorf("%w: %v", ErrNoTier, res)
		}
		// Buckets whose nominal range [Start, Start+res) intersects [t0, t1).
		lo := sort.Search(t.count(), func(i int) bool { return t.at(i).Start+int64(res) > t0 })
		for i := lo; i < t.count() && t.at(i).Start < t1; i++ {
			b := t.at(i)
			agg.merge(&b.Cols[c], n)
			n += b.Count
		}
		if n > 0 {
			delta = rollupDeltaSum(t, c, t0, t1)
		}
	}
	out := WindowAgg{Resolution: res, Count: n, Seconds: float64(t1-t0) / 1e9}
	if n > 0 {
		out.Sum, out.Min, out.Max, out.Delta = agg.Sum, agg.Min, agg.Max, delta
	}
	return out, nil
}

// SelectResolution picks the coarsest tier whose buckets are fine
// enough for the window — at least minBucketsPerWindow buckets fit in
// (t1 - t0) — and whose retained history covers t0; raw wins when no
// rollup qualifies. A tier also qualifies on coverage when the window
// starts before *all* retained data (everything clamps the same way).
func (a *Archive) SelectResolution(t0, t1 int64) Resolution {
	window := t1 - t0
	if window <= 0 {
		return ResRaw
	}
	s := a.snap.Load()
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
