package archive

import (
	"errors"
	"math"
	"testing"
)

// fillArchive appends n rows at the given cadence (ns): column 0 is a
// counter starting near 2^64 that wraps early and climbs by incr per
// row, column 1 is a well-behaved counter, column 2 a sawtooth level.
func fillArchive(t *testing.T, a *Archive, n int, cadence int64, incr uint64) {
	t.Helper()
	v0 := ^uint64(0) - incr*3
	for i := 0; i < n; i++ {
		if err := a.Append(row(int64(i)*cadence,
			v0+uint64(i)*incr,
			uint64(i)*incr*2,
			uint64(500+100*(i%7)),
		)); err != nil {
			t.Fatal(err)
		}
	}
}

// rateAt is the rate a window reports at one resolution, Delta over
// Seconds: what Replay.EvalWindow serves for rate_over.
func rateAt(a *Archive, res Resolution, pmid uint32, t0, t1 int64) (float64, error) {
	agg, err := a.WindowAt(res, pmid, t0, t1)
	if err != nil {
		return 0, err
	}
	return agg.Delta / agg.Seconds, nil
}

// TestRollupRateMatchesRawExactly: on bucket-aligned windows a rollup
// rate must equal the raw-path rate bit for bit — including across a
// counter wrap — because both are the same sum of wrap-corrected
// integer steps.
func TestRollupRateMatchesRawExactly(t *testing.T) {
	a, _ := New(schema(3), Options{BlockSamples: 16, Rollups: []int64{1000, 10_000}})
	fillArchive(t, a, 500, 100, 400) // 500 rows, 100ns cadence, wraps at i=4

	windows := []struct {
		t0, t1 int64
		res    []Resolution // tiers the window is bucket-aligned for
	}{
		{0, 49_900, []Resolution{1000, 10_000}},      // whole archive
		{10_000, 40_000, []Resolution{1000, 10_000}}, // interior, aligned to both tiers
		{1000, 2000, []Resolution{1000}},             // one fine bucket (splits a coarse one)
		{0, 10_000, []Resolution{1000, 10_000}},      // prefix
	}
	for _, pm := range []uint32{1, 2, 3} {
		for _, w := range windows {
			raw, err := rateAt(a, ResRaw, pm, w.t0, w.t1)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range w.res {
				ru, err := rateAt(a, res, pm, w.t0, w.t1)
				if err != nil {
					t.Fatal(err)
				}
				if ru != raw {
					t.Errorf("pmid %d window [%d %d] res %v: rollup rate %v != raw rate %v", pm, w.t0, w.t1, res, ru, raw)
				}
			}
		}
	}
}

// TestRollupWindowMatchesRaw: WindowAt aggregates (count, sum, min,
// max) over rollups must equal the raw aggregates exactly on aligned
// windows — integer-valued samples, so the float sums are exact.
func TestRollupWindowMatchesRaw(t *testing.T) {
	a, _ := New(schema(3), Options{BlockSamples: 16, Rollups: []int64{1000, 10_000}})
	fillArchive(t, a, 500, 100, 400)
	for _, pm := range []uint32{2, 3} {
		for _, w := range [][2]int64{{0, 50_000}, {10_000, 40_000}} {
			raw, err := a.WindowAt(ResRaw, pm, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []Resolution{1000, 10_000} {
				ru, err := a.WindowAt(res, pm, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				if ru.Count != raw.Count || ru.Sum != raw.Sum || ru.Min != raw.Min || ru.Max != raw.Max {
					t.Errorf("pmid %d window %v res %v: rollup agg %+v != raw %+v", pm, w, res, ru, raw)
				}
				if ru.Delta != raw.Delta {
					t.Errorf("pmid %d window %v res %v: rollup delta %v != raw %v", pm, w, res, ru.Delta, raw.Delta)
				}
			}
		}
	}
}

// TestRollupUnalignedWindowBound: when a window edge splits a bucket,
// the rollup rate approximates by fractional overlap; the error must
// stay within one edge bucket's delta on each side.
func TestRollupUnalignedWindowBound(t *testing.T) {
	a, _ := New(schema(3), Options{BlockSamples: 16, Rollups: []int64{1000}})
	fillArchive(t, a, 500, 100, 400)
	t0, t1 := int64(1550), int64(42_350) // both edges mid-bucket
	raw, err := rateAt(a, ResRaw, 2, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := rateAt(a, 1000, 2, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	// Each edge bucket holds 10 rows of +800 = 8000 counts; over the
	// ~40.8µs window that bounds the rate error.
	bound := 2 * 8000.0 / (float64(t1-t0) / 1e9)
	if math.Abs(ru-raw) > bound {
		t.Errorf("unaligned rollup rate %v vs raw %v: |diff| %v exceeds documented bound %v", ru, raw, math.Abs(ru-raw), bound)
	}
}

// TestSelectResolution pins the pushdown planning rule: coarsest tier
// with at least minBucketsPerWindow buckets in the window and coverage
// of t0; raw otherwise.
func TestSelectResolution(t *testing.T) {
	a, _ := New(schema(3), Options{BlockSamples: 16, Rollups: []int64{1000, 10_000}})
	fillArchive(t, a, 500, 100, 400) // span [0, 49_900]

	cases := []struct {
		name   string
		t0, t1 int64
		want   Resolution
	}{
		{"tiny window stays raw", 40_000, 41_000, ResRaw},
		{"4 fine buckets fit", 40_000, 44_000, Resolution(1000)},
		{"coarse tier wins when 4 fit", 0, 49_900, Resolution(10_000)},
		{"just under 4 coarse buckets", 0, 39_999, Resolution(1000)},
		{"window before all data clamps alike", -100_000, -50_000, Resolution(10_000)},
		{"degenerate window", 10, 10, ResRaw},
	}
	for _, c := range cases {
		if got := a.SelectResolution(c.t0, c.t1); got != c.want {
			t.Errorf("%s: SelectResolution(%d, %d) = %v, want %v", c.name, c.t0, c.t1, got, c.want)
		}
	}
}

// TestFloorAtRollup: FloorAt against a rollup tier serves the newest
// bucket's last-sample aggregates at the bucket's last-sample
// timestamp.
func TestFloorAtRollup(t *testing.T) {
	a, _ := New(schema(3), Options{Rollups: []int64{1000}})
	fillArchive(t, a, 50, 100, 400) // 5 buckets of 10 rows

	if _, ok := a.FloorAt(Resolution(1000), -1); ok {
		t.Error("FloorAt before all buckets should miss")
	}
	s, ok := a.FloorAt(Resolution(1000), 2499)
	if !ok || s.Timestamp != 1900 {
		t.Fatalf("FloorAt(2499) = %+v, %v; want bucket ending at 1900", s, ok)
	}
	raw, _ := a.Floor(1900)
	if s.Values[0] != raw.Values[0] || s.Values[1] != raw.Values[1] || s.Values[2] != raw.Values[2] {
		t.Errorf("rollup floor values %v != raw row at 1900 %v", s.Values, raw.Values)
	}
	if _, err := rateAt(a, Resolution(777), 1, 0, 1000); !errors.Is(err, ErrNoTier) {
		t.Errorf("unknown tier err = %v, want ErrNoTier", err)
	}
}

// TestRollupBucketCap: tiers evict their oldest completed buckets past
// MaxBuckets, and the eviction is visible in Stats.
func TestRollupBucketCap(t *testing.T) {
	a, _ := New(schema(3), Options{Rollups: []int64{1000}, MaxBuckets: 8})
	fillArchive(t, a, 300, 100, 400) // 30 buckets worth
	st := a.Stats()
	if len(st.Tiers) != 1 {
		t.Fatalf("tiers = %+v", st.Tiers)
	}
	if st.Tiers[0].Buckets != 9 { // 8 completed + 1 open
		t.Errorf("retained buckets = %d, want 9", st.Tiers[0].Buckets)
	}
	if st.Tiers[0].Evicted != 21 {
		t.Errorf("evicted buckets = %d, want 21", st.Tiers[0].Evicted)
	}
	// Rates over the retained bucket range still match raw exactly.
	raw, _ := rateAt(a, ResRaw, 2, 22_000, 28_000)
	ru, err := rateAt(a, 1000, 2, 22_000, 28_000)
	if err != nil || ru != raw {
		t.Errorf("rate over capped tier = %v, %v; want %v", ru, err, raw)
	}
}
