package archive

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// refTier is a rollup tier as a per-row fold keeps it: the completed
// buckets and a copy of the in-progress one, made anew for every row.
type refTier struct {
	res     int64
	done    []Bucket
	cur     *Bucket
	evicted int
}

// updateTier folds one row into a tier, copy-on-write: published buckets
// are never mutated in place. It is the reference the archive's tiers,
// folded in place and published per sealed block, must agree with.
func updateTier(t *refTier, row Sample, maxBuckets int) refTier {
	nt := refTier{res: t.res, done: t.done, evicted: t.evicted}
	nb := Bucket{Start: alignDown(row.Timestamp, t.res)}
	if t.cur != nil && nb.Start == t.cur.Start {
		nb = *t.cur
		nb.Cols = append([]ColAgg(nil), t.cur.Cols...)
	} else if t.cur != nil {
		nt.done = append(t.done, *t.cur)
		if drop := len(nt.done) - maxBuckets; drop > 0 {
			nt.done = nt.done[drop:]
			nt.evicted += drop
		}
	}
	nb.addRow(row)
	nt.cur = &nb
	return nt
}

// TestTierViewMatchesPerRowFold: after every append, each tier's count,
// every bucket and the evicted count equal the per-row fold's, and so do
// the reads at the head — a floor, windows on the tier and on raw, the
// span and the buckets — answered from an archive whose tiers are the
// reference's. Rows come with gaps, blocks straddle bucket edges, one
// tier is finer than a block, one is capped, a column wraps, and the
// archive is written and read back mid-stream.
func TestTierViewMatchesPerRowFold(t *testing.T) {
	const cadence = int64(8)
	opts := Options{BlockSamples: 10, Rollups: []int64{4 * cadence, 64 * cadence, 1024 * cadence}, MaxBuckets: 6}
	a, _ := New(schema(3), opts)
	ref := make([]refTier, len(opts.Rollups))
	for i, res := range opts.Rollups {
		ref[i].res = res
	}
	rng := rand.New(rand.NewSource(7))
	ts, v0 := int64(-333), ^uint64(0)-4000 // negative timestamps to start; column 0 wraps
	for i := 0; i < 1500; i++ {
		switch rng.Intn(20) {
		case 0:
			ts += 70 * cadence // a gap across several fine buckets
		case 1, 2:
			ts += 1 + rng.Int63n(3*cadence)
		default:
			ts += cadence
		}
		r := Sample{Timestamp: ts, Values: []uint64{v0 + uint64(i)*37, uint64(i * i), uint64(rng.Intn(1000))}}
		if err := a.AppendSample(r); err != nil {
			t.Fatal(err)
		}
		for k := range ref {
			ref[k] = updateTier(&ref[k], r, opts.MaxBuckets)
		}
		if err := tiersDiff(a, ref); err != nil {
			t.Fatalf("after row %d at %d: %v", i, ts, err)
		}
		if i == 700 { // reload mid-stream: appends continue the same fold
			var buf bytes.Buffer
			if _, err := a.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			var err error
			if a, err = Read(&buf, opts); err != nil {
				t.Fatal(err)
			}
			if err := tiersDiff(a, ref); err != nil {
				t.Fatalf("after the reload at row %d: %v", i, err)
			}
		}
	}
}

// tiersDiff compares a's tiers with the reference and the reads at the
// head with the same reads over the reference's tiers.
func tiersDiff(a *Archive, ref []refTier) error {
	s := a.snap.Load()
	want := *s
	want.tiers = make([]tierSnap, len(ref))
	for k := range s.tiers {
		got, r := &s.tiers[k], &ref[k]
		want.tiers[k] = tierSnap{res: r.res, done: r.done, evicted: r.evicted, sealed: r.cur}
		if got.count() != want.tiers[k].count() || got.evicted != r.evicted {
			return fmt.Errorf("tier %v: %d buckets, %d evicted; per-row fold %d, %d",
				Resolution(r.res), got.count(), got.evicted, want.tiers[k].count(), r.evicted)
		}
		for i := 0; i < got.count(); i++ {
			if g, w := got.at(i), want.tiers[k].at(i); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("tier %v bucket %d: %+v; per-row fold %+v", Resolution(r.res), i, *g, *w)
			}
		}
	}
	b, _ := New(a.names, a.opts)
	b.snap.Store(&want)
	head := s.lastTS
	for _, res := range append([]Resolution{ResRaw}, tierResolutions(a)...) {
		for c := range a.names {
			for _, w := range []int64{1, 5, 37, 300, 5000} {
				g, gerr := a.WindowAt(res, a.names[c].PMID, head-w, head+1)
				x, xerr := b.WindowAt(res, a.names[c].PMID, head-w, head+1)
				if g != x || (gerr == nil) != (xerr == nil) {
					return fmt.Errorf("WindowAt(%v, col %d, [head-%d, head]) = %+v, %v; per-row fold %+v, %v", res, c, w, g, gerr, x, xerr)
				}
			}
		}
		gr, gok := a.FloorAt(res, head)
		xr, xok := b.FloorAt(res, head)
		gf, gl, gs := a.SpanAt(res)
		xf, xl, xs := b.SpanAt(res)
		if gok != xok || !reflect.DeepEqual(gr, xr) || gf != xf || gl != xl || gs != xs {
			return fmt.Errorf("res %v: FloorAt %+v, %v, SpanAt %d..%d, %v; per-row fold %+v, %v, %d..%d, %v",
				res, gr, gok, gf, gl, gs, xr, xok, xf, xl, xs)
		}
		if res == ResRaw {
			continue
		}
		gb, _ := tierBuckets(a, res, head-int64(res)*3, head)
		xb, _ := tierBuckets(b, res, head-int64(res)*3, head)
		if !reflect.DeepEqual(gb, xb) {
			return fmt.Errorf("Buckets(%v) at the head = %+v; per-row fold %+v", res, gb, xb)
		}
	}
	return nil
}

func tierResolutions(a *Archive) (out []Resolution) {
	for _, ts := range a.Stats().Tiers {
		out = append(out, ts.Resolution)
	}
	return out
}

// TestAppendAllocsPerBlock: a row costs the writer no copy of any tier's
// bucket. Over a block of 64 16-column rows into the 1 s and 60 s tiers
// at 1 ms — archive_mixed's writer — an append allocates its snapshot
// and tier headers, and a block's rows, values, encoding and seal once:
// 2.3 a row. Copying one tier's bucket a row would cost two more.
func TestAppendAllocsPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const cols, bs, ceiling = 16, 64, 2.5
	a, _ := New(schema(cols), Options{MaxBytes: 1 << 30, BlockSamples: bs, Rollups: []int64{1e9, 60e9}})
	r := Sample{Values: make([]uint64, cols)}
	next := int64(0)
	block := func() {
		for k := 0; k < bs; k++ {
			r.Timestamp = next * 1e6
			for j := range r.Values {
				r.Values[j] = uint64(next) * 64 * uint64(j+1)
			}
			next++
			if err := a.AppendSample(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	perRow := testing.AllocsPerRun(50, block) / bs
	if perRow > ceiling {
		t.Errorf("AppendSample allocates %.2f times a row, want at most %v", perRow, ceiling)
	}
	t.Logf("%.2f allocations a row", perRow)
}

// TestEvictedBucketIsReleased: a bucket the MaxBuckets cap evicts must
// become garbage, Cols and all, within a bounded number of further
// completed buckets, not stay reachable through the tier's shared array
// until append next reallocates it — which, for a cap of 8, is up to 8
// completions later.
func TestEvictedBucketIsReleased(t *testing.T) {
	const res, maxBuckets, further = 10, 8, 2
	a, _ := New(schema(1), Options{Rollups: []int64{res}, MaxBuckets: maxBuckets})
	ts := int64(0)
	complete := func() { // one row a bucket: each append completes the one before
		if err := a.Append(row(ts, uint64(ts))); err != nil {
			t.Fatal(err)
		}
		ts += res
	}
	for len(a.snap.Load().tiers[0].done) < maxBuckets {
		complete()
	}
	released := make(chan struct{})
	first := func() int64 { // keeps no pointer to the bucket on this stack
		b := &a.snap.Load().tiers[0].done[0]
		runtime.SetFinalizer(&b.Cols[0], func(*ColAgg) { close(released) })
		return b.Start
	}()
	for a.snap.Load().tiers[0].done[0].Start == first {
		complete()
	}
	defer runtime.KeepAlive(a) // only the bucket may become garbage, not the archive
	for n := 0; ; n++ {
		for k := 0; k < 10; k++ {
			runtime.GC()
			select {
			case <-released:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		if n == further {
			t.Fatalf("the bucket evicted at %d is still reachable %d completed buckets later", first, n)
		}
		complete()
	}
}

// tierBuckets returns the tier's retained buckets whose sample span
// [FirstTS, LastTS] intersects [t0, t1], oldest first, shared with the
// published snapshot.
func tierBuckets(a *Archive, res Resolution, t0, t1 int64) ([]Bucket, error) {
	t := a.snap.Load().tier(int64(res))
	if t == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoTier, res)
	}
	n := t.count()
	lo := sort.Search(n, func(i int) bool { return t.at(i).LastTS >= t0 })
	hi := max(lo, sort.Search(n, func(i int) bool { return t.at(i).FirstTS > t1 }))
	out := make([]Bucket, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, *t.at(i))
	}
	return out, nil
}
