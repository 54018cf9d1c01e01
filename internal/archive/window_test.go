package archive

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// cachedCuts counts the block cuts the archive's ring holds.
func cachedCuts(a *Archive) (n int) {
	for i := range a.cuts {
		if a.cuts[i].Load() != nil {
			n++
		}
	}
	return n
}

// scanWindow is the reference a raw window is compared against: one
// pass over every retained row in time order, sharing none of the
// archive's summary algebra. Steps are plain mod-2^64 subtractions.
func scanWindow(rows []Sample, c int, t0, t1 int64) (n int, sum float64, lo, hi uint64, delta float64) {
	for i, r := range rows {
		if i > 0 {
			p := rows[i-1]
			if s, e := max(t0, p.Timestamp), min(t1, r.Timestamp); e > s {
				frac := float64(e-s) / float64(r.Timestamp-p.Timestamp)
				delta += frac * float64(int64(r.Values[c]-p.Values[c]))
			}
		}
		if r.Timestamp < t0 || r.Timestamp >= t1 {
			continue
		}
		v := r.Values[c]
		if n == 0 || v < lo {
			lo = v
		}
		if n == 0 || v > hi {
			hi = v
		}
		sum += float64(v)
		n++
	}
	return n, sum, lo, hi, delta
}

// windowDiff compares a raw WindowAt of column c with the row scan of
// rows: "" when they agree (Sum up to float re-association), else both.
func windowDiff(a *Archive, rows []Sample, c int, t0, t1 int64) string {
	got, err := a.WindowAt(ResRaw, uint32(c+1), t0, t1)
	n, sum, lo, hi, delta := scanWindow(rows, c, t0, t1)
	if err == nil && got.Count == n && got.Min == lo && got.Max == hi && got.Delta == delta &&
		math.Abs(got.Sum-sum) <= 1e-12*math.Abs(sum) {
		return ""
	}
	return fmt.Sprintf("[%d, %d) col %d: WindowAt = %+v, %v; row scan = count %d sum %v min %d max %d delta %v",
		t0, t1, c, got, err, n, sum, lo, hi, delta)
}

// TestRawWindowMatchesRowScan: a raw WindowAt, which merges the
// summaries of the blocks it covers and walks only the rows of the
// blocks its edges split, must agree with a brute-force scan of the
// rows at every block size and every way a window edge can meet a
// block — and must do so without decoding the covered blocks or
// allocating.
func TestRawWindowMatchesRowScan(t *testing.T) {
	// An 8 ns cadence and edges at whole nanoseconds keep every overlap
	// fraction a multiple of 1/8, so the delta is exact in float64
	// whatever order its terms are added in.
	const cadence, nRows, incr = int64(8), 395, uint64(40)
	for _, bs := range []int{1, 2, 64} {
		a, _ := New(schema(3), Options{BlockSamples: bs, Rollups: []int64{256}, RawRetention: 2544})
		v0 := ^uint64(0) - incr*200 // column 0 wraps past 2^64 mid-archive
		for i := 0; i < nRows; i++ {
			u := uint64(i)
			if err := a.Append(row(int64(i)*cadence, v0+u*incr, u*incr*2, 500+100*(u%7))); err != nil {
				t.Fatal(err)
			}
		}
		if a.Compact() == 0 {
			t.Fatalf("bs %d: nothing folded, the window before retention is not exercised", bs)
		}
		rows, err := a.All()
		if err != nil {
			t.Fatal(err)
		}
		first, last := rows[0].Timestamp, rows[len(rows)-1].Timestamp
		blocks := a.snap.Load().blocks
		b, nb := blocks[len(blocks)/2], blocks[len(blocks)/2+1]
		wrap := int64(200) * cadence // column 0 wraps between this row and the next
		if wrap <= first {
			t.Fatalf("bs %d: the wrap at %d was folded away (raw starts at %d)", bs, wrap, first)
		}
		windows := []struct {
			name   string
			t0, t1 int64
		}{
			{"inside one block", b.FirstTS + 1, max(b.LastTS, b.FirstTS+2)},
			{"edges on firstTS and lastTS", b.FirstTS, nb.LastTS},
			{"last row of a block included", b.FirstTS, nb.LastTS + 1},
			{"t1 on the next block's firstTS", b.FirstTS - 4, nb.FirstTS},
			{"t0 on a block's lastTS", b.LastTS, nb.LastTS + 4},
			{"between two blocks", b.LastTS + 1, nb.FirstTS},
			{"ending in the tail", b.FirstTS + 2, last - cadence - 3},
			{"ending past the newest row", nb.FirstTS + 6, last + 100},
			{"the newest row alone", last, last + 1},
			{"starting before retention", first - 1000, b.LastTS + 1},
			{"everything retained", first - 5, last + 5},
			{"empty, before retention", first - 1000, first},
			{"empty, between two rows", b.FirstTS + 1, b.FirstTS + 7},
			{"empty, after the newest row", last + 1, last + 50},
			{"across the 2^64 wrap", wrap - 3*cadence - 2, wrap + 4*cadence + 1},
			{"the wrapping segment alone", wrap + 2, wrap + 6},
			// Where a cut can fall in the block it splits.
			{"t0 one past a block's first row", b.FirstTS + 1, last + 5},
			{"t0 on a block's last row, t1 far", b.LastTS, last + 5},
			{"t1 on a block's last row", b.FirstTS - 3*cadence, nb.LastTS},
			{"t1 one past a block's first row", first - 5, nb.FirstTS + 1},
			{"both edges in the tail", last - 2*cadence - 3, last - 3},
			{"starting in the tail", last - 2*cadence - 3, last + 1},
			{"t0 splits the wrapping block", wrap - 2*cadence - 1, last + 1},
			{"t0 inside the wrapping segment", wrap + 3, last + 1},
			{"t1 inside the wrapping segment", first - 5, wrap + 5},
		}
		for _, w := range windows {
			for c := 0; c < 3; c++ {
				n, sum, lo, hi, delta := scanWindow(rows, c, w.t0, w.t1)
				if n == 0 {
					sum, lo, hi, delta = 0, 0, 0, 0 // an empty window reports nothing
				}
				got, err := a.WindowAt(ResRaw, uint32(c+1), w.t0, w.t1)
				if err != nil {
					t.Fatalf("bs %d %s col %d: %v", bs, w.name, c, err)
				}
				if got.Count != n || got.Min != lo || got.Max != hi || got.Delta != delta ||
					math.Abs(got.Sum-sum) > 1e-12*math.Abs(sum) {
					t.Errorf("bs %d %s [%d, %d) col %d: WindowAt = %+v, row scan = count %d sum %v min %d max %d delta %v",
						bs, w.name, w.t0, w.t1, c, got, n, sum, lo, hi, delta)
				}
			}
		}
	}

	// A second column reads through the cut the first one made: two
	// parses for the two edge blocks, then none.
	a, _ := New(schema(3), Options{BlockSamples: 16})
	fillArchive(t, a, 10*16+5, 100, 400)
	rows, _ := a.All()
	t0, t1 := rows[16+5].Timestamp+50, rows[7*16+9].Timestamp // half a segment: exact in float64
	for c, wantParses := range []uint32{2, 0, 0} {
		before := a.cutNext.Load()
		if diff := windowDiff(a, rows, c, t0, t1); diff != "" {
			t.Errorf("through a cached cut, %s", diff)
		}
		if parses := a.cutNext.Load() - before; parses != wantParses {
			t.Errorf("col %d: %d blocks parsed, want %d", c, parses, wantParses)
		}
	}
	if row, ok := a.Floor(t1); !ok || row.Timestamp != t1 || a.cutNext.Load() != 2 {
		t.Errorf("Floor(%d) = %+v, %v after %d parses; want the row at the window's cut and no third parse", t1, row, ok, a.cutNext.Load())
	}

	// Cold caches: a reloaded archive has decoded nothing.
	a, _ = New(schema(3), Options{BlockSamples: 16})
	fillArchive(t, a, 45*16+5, 100, 400)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := b.snap.Load().blocks
	decoded := func() int { return cachedCuts(b) }
	if len(blocks) < 40 || decoded() != 0 {
		t.Fatalf("reloaded archive: %d blocks, %d cut; want at least 40, none cut", len(blocks), decoded())
	}
	// From the middle of block 5 to the middle of block 35: 29 covered
	// blocks between two split ones.
	t0, t1 = blocks[5].FirstTS+850, blocks[35].FirstTS+850
	window := func() {
		if agg, err := b.WindowAt(ResRaw, 2, t0, t1); err != nil || agg.Count != 30*16 {
			t.Fatalf("WindowAt = %+v, %v; want %d rows", agg, err, 30*16)
		}
	}
	window()
	if n := decoded(); n > 2 {
		t.Errorf("a window over 31 blocks decoded %d of them; only the 2 its edges split may decode", n)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
			t.Errorf("a warm raw window allocates %v times per call, want 0", allocs)
		}
	}
}
