package archive

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

// Satellite audit: Samples / Floor edge cases pinned with
// table-driven tests — inverted intervals, empty archives,
// single-sample blocks, and queries entirely outside the retained span.

// edgeArchive builds an archive with rows at the given timestamps
// (value = ts as uint64), with 1-sample blocks when tiny is set so
// every sealed block is a single-row block.
func edgeArchive(t *testing.T, stamps []int64, tiny bool) *Archive {
	t.Helper()
	opts := Options{}
	if tiny {
		opts.BlockSamples = 1
	}
	a, err := New(schema(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range stamps {
		if err := a.Append(row(ts, uint64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestSamplesEdgeCases(t *testing.T) {
	stamps := []int64{100, 200, 300, 400, 500}
	cases := []struct {
		name   string
		stamps []int64
		tiny   bool
		t0, t1 int64
		want   []int64
	}{
		{"inverted interval", stamps, false, 300, 100, nil},
		{"empty archive", nil, false, 0, 1 << 60, nil},
		{"entirely before span", stamps, false, -50, 50, nil},
		{"entirely after span", stamps, false, 600, 900, nil},
		{"exact endpoints inclusive", stamps, false, 100, 500, stamps},
		{"interior", stamps, false, 150, 450, []int64{200, 300, 400}},
		{"single point hit", stamps, false, 300, 300, []int64{300}},
		{"single point miss", stamps, false, 301, 301, nil},
		{"single-sample blocks", stamps, true, 150, 450, []int64{200, 300, 400}},
		{"single-sample blocks full", stamps, true, 0, 1000, stamps},
		{"one-row archive hit", []int64{42}, false, 0, 100, []int64{42}},
		{"one-row archive miss", []int64{42}, false, 43, 100, nil},
		{"huge bounds", stamps, false, -1 << 62, 1 << 62, stamps},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := edgeArchive(t, c.stamps, c.tiny)
			got, err := a.Samples(c.t0, c.t1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("Samples(%d, %d) returned %d rows, want %d", c.t0, c.t1, len(got), len(c.want))
			}
			for i, r := range got {
				if r.Timestamp != c.want[i] || r.Values[0] != uint64(c.want[i]) {
					t.Errorf("row %d = %+v, want ts=%d", i, r, c.want[i])
				}
			}
		})
	}
}

func TestFloorEdgeCases(t *testing.T) {
	stamps := []int64{100, 200, 300}
	cases := []struct {
		name   string
		stamps []int64
		tiny   bool
		t      int64
		want   int64
		ok     bool
	}{
		{"empty archive", nil, false, 0, 0, false},
		{"before first", stamps, false, 99, 0, false},
		{"exactly first", stamps, false, 100, 100, true},
		{"between samples", stamps, false, 250, 200, true},
		{"exactly last", stamps, false, 300, 300, true},
		{"after last", stamps, false, 1 << 60, 300, true},
		{"single row before", []int64{42}, false, 41, 0, false},
		{"single row at", []int64{42}, false, 42, 42, true},
		{"single row after", []int64{42}, false, 1000, 42, true},
		{"single-sample blocks between", stamps, true, 250, 200, true},
		{"single-sample blocks before", stamps, true, -1, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := edgeArchive(t, c.stamps, c.tiny)
			s, ok := a.Floor(c.t)
			if ok != c.ok {
				t.Fatalf("Floor(%d) ok = %v, want %v", c.t, ok, c.ok)
			}
			if ok && (s.Timestamp != c.want || s.Values[0] != uint64(c.want)) {
				t.Errorf("Floor(%d) = %+v, want ts=%d", c.t, s, c.want)
			}
		})
	}
}

// TestFloorAcrossSealedBoundary: floors served from block
// summaries (no decode) must agree with the decoded rows at every
// position around a block boundary.
func TestFloorAcrossSealedBoundary(t *testing.T) {
	a, _ := New(schema(1), Options{BlockSamples: 4})
	var stamps []int64
	for i := 0; i < 17; i++ { // 4 sealed blocks + 1 tail row
		ts := int64(i) * 10
		stamps = append(stamps, ts)
		if err := a.Append(row(ts, uint64(i*i))); err != nil {
			t.Fatal(err)
		}
	}
	for probe := int64(-5); probe <= 170; probe++ {
		var want int64 = -1
		for _, ts := range stamps {
			if ts <= probe {
				want = ts
			}
		}
		s, ok := a.Floor(probe)
		if want < 0 {
			if ok {
				t.Fatalf("Floor(%d) = %+v, want miss", probe, s)
			}
			continue
		}
		if !ok || s.Timestamp != want {
			t.Fatalf("Floor(%d) = %+v ok=%v, want ts=%d", probe, s, ok, want)
		}
		i := want / 10
		if s.Values[0] != uint64(i*i) {
			t.Fatalf("Floor(%d) value = %d, want %d", probe, s.Values[0], i*i)
		}
	}
}

// TestAppendRejectsOverflowingTimestamp: a timestamp within one rollup
// width of either end of int64 (a flipped sign bit upstream makes one)
// would wrap its bucket's start or end. Append rejects it with ErrRange,
// and the archive keeps round-tripping; the extreme timestamps the tiers
// can hold are accepted and round-trip too.
func TestAppendRejectsOverflowingTimestamp(t *testing.T) {
	const res5m = int64(Res5m)
	lo := math.MinInt64 / res5m * res5m             // lowest 5m bucket start that fits
	hi := (math.MaxInt64/res5m-1)*res5m + res5m - 1 // last ts whose 5m bucket end fits
	cases := []struct {
		name   string
		stamps []int64 // appended in order, all accepted
		bad    int64
	}{
		{"near MinInt64", nil, math.MinInt64 + 22_000_000},
		{"MinInt64", nil, math.MinInt64},
		{"just below the lowest bucket", []int64{lo}, lo - 1},
		{"near MaxInt64", []int64{hi}, math.MaxInt64 - 1},
		{"just above the highest bucket", []int64{-5, hi}, hi + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := New(schema(1), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ts := range c.stamps {
				if err := a.Append(row(ts, 7)); err != nil {
					t.Fatalf("append %d: %v", ts, err)
				}
			}
			if err := a.Append(row(c.bad, 7)); !errors.Is(err, ErrRange) {
				t.Fatalf("append %d: err = %v, want ErrRange", c.bad, err)
			}
			var buf bytes.Buffer
			if _, err := a.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Read(&buf, Options{})
			if err != nil {
				t.Fatalf("archive no longer round-trips: %v", err)
			}
			rows, err := back.All()
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, r := range rows {
				got = append(got, r.Timestamp)
			}
			if !slices.Equal(got, c.stamps) {
				t.Fatalf("round-tripped timestamps = %v, want %v", got, c.stamps)
			}
		})
	}
}
