package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"papimc/internal/pcp"
)

// fuzzFirstChunk is where the first raw chunk's rows start in what
// fuzzArchiveBytes writes: magic, name count, three 13-byte names each
// behind a pmid and a length byte, chunk count, row count, byte length.
const fuzzFirstChunk = len(fileMagic) + 1 + 3*(2+13) + 3

// fuzzArchiveBytes serializes a small valid archive (current format
// version) of bs-row blocks to seed the corpus.
func fuzzArchiveBytes(tb testing.TB, rows, bs int) []byte {
	tb.Helper()
	a, err := New([]pcp.NameEntry{
		{PMID: 1, Name: "fuzz.metric.a"},
		{PMID: 2, Name: "fuzz.metric.b"},
		{PMID: 7, Name: "fuzz.metric.c"},
	}, Options{BlockSamples: bs, Rollups: []int64{40, 200}})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := Sample{
			Timestamp: int64(i) * 10,
			Values:    []uint64{uint64(i) * 100, 1 << (uint(i) % 60), ^uint64(0) - uint64(i)},
		}
		if err := a.AppendSample(row); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// referenceDecodeRows is the block decoder as it stood before decodeRows
// was rebuilt on rowCursor, kept verbatim as the fuzz oracle: the cursor
// must produce these rows, and fail where this fails.
func referenceDecodeRows(buf []byte, count, width int, strict bool) ([]Sample, error) {
	rows := make([]Sample, 0, count)
	var prev Sample
	for i := 0; i < count; i++ {
		row := Sample{Values: make([]uint64, width)}
		if i == 0 {
			ts, n := binary.Varint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("%w: keyframe timestamp", ErrFormat)
			}
			buf = buf[n:]
			row.Timestamp = ts
			for c := range row.Values {
				v, n := binary.Uvarint(buf)
				if n <= 0 {
					return nil, fmt.Errorf("%w: keyframe value", ErrFormat)
				}
				buf = buf[n:]
				row.Values[c] = v
			}
		} else {
			dt, n := binary.Varint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("%w: delta timestamp", ErrFormat)
			}
			buf = buf[n:]
			row.Timestamp = prev.Timestamp + dt
			for c := range row.Values {
				dv, n := binary.Varint(buf)
				if n <= 0 {
					return nil, fmt.Errorf("%w: delta value", ErrFormat)
				}
				buf = buf[n:]
				row.Values[c] = prev.Values[c] + uint64(dv)
			}
		}
		rows = append(rows, row)
		prev = row
	}
	if strict && len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after block", ErrFormat, len(buf))
	}
	return rows, nil
}

// checkCursorAgainstReference decodes data as one raw chunk, at a few
// row counts and widths, through decodeRows (the cursor) and through the
// reference: same rows, or both ErrFormat.
func checkCursorAgainstReference(t *testing.T, data []byte) {
	for _, shape := range [][2]int{{1, 1}, {4, 3}, {9, 3}, {64, 16}} {
		count, width := shape[0], shape[1]
		for _, strict := range []bool{false, true} {
			want, wantErr := referenceDecodeRows(data, count, width, strict)
			got, err := decodeRows(data, count, width, strict)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("chunk %d x %d strict=%v: cursor error %v, reference error %v", count, width, strict, err, wantErr)
			}
			if err != nil {
				if !errors.Is(err, ErrFormat) {
					t.Fatalf("chunk %d x %d: cursor failed with %v, want ErrFormat", count, width, err)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk %d x %d: cursor rows differ from the reference:\n%v\n%v", count, width, got, want)
			}
		}
	}
}

// FuzzReadArchive hammers the archive decoder — the raw chunks, the
// block-index and rollup sections — with hostile input. Two properties:
//
//  1. Totality: Read never panics or runs away — any input is either
//     decoded or rejected with an error, no matter how the length
//     fields, varints, section ids, chunk counts, or bucket aggregates
//     are mangled.
//  2. Soundness: an input Read accepts yields a well-formed archive —
//     strictly increasing timestamps, full-width rows, queryable rollup
//     tiers — that round-trips through WriteTo/Read to identical
//     samples and identical rollup buckets.
func FuzzReadArchive(f *testing.F) {
	empty := fuzzArchiveBytes(f, 0, 4)
	valid := fuzzArchiveBytes(f, 9, 4)
	big := fuzzArchiveBytes(f, 23, 4) // several sealed blocks + completed buckets
	f.Add(empty)
	f.Add(valid)
	f.Add(big)
	f.Add(fuzzArchiveBytes(f, 23, 3)) // 30 ns blocks straddle the 40 ns grid
	// Truncations at structurally interesting places: inside the magic,
	// the schema, the chunk table, and the trailing sections.
	for _, n := range []int{0, 3, len(fileMagic), len(fileMagic) + 2, len(big) / 2, len(big) * 3 / 4, len(big) - 1} {
		f.Add(big[:n])
	}
	// Single-bit flips in the header, schema, chunk lengths, delta
	// stream, and section payloads (index timestamps, bucket counts).
	for _, off := range []int{1, len(fileMagic), len(fileMagic) + 4, len(big) / 3, len(big) / 2, len(big) * 7 / 8, len(big) - 2} {
		b := append([]byte(nil), big...)
		b[off] ^= 0x10
		f.Add(b)
	}
	f.Add([]byte(fileMagic))
	f.Add([]byte("not an archive at all"))
	// Hand-built skeletons: huge chunk/bucket counts that a naive decoder
	// would pre-allocate, section layouts other than WriteTo's (all must
	// be rejected), and the smallest valid file.
	hostile := func(build func(b []byte) []byte) []byte {
		var b []byte
		b = append(b, fileMagic...)
		b = binary.AppendUvarint(b, 1) // one name
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 1)
		b = append(b, 'x')
		return build(b)
	}
	f.Add(hostile(func(b []byte) []byte { // chunk claims 2^24 rows in 3 bytes
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 1<<24)
		b = binary.AppendUvarint(b, 3)
		return append(b, 0, 0, 0)
	}))
	f.Add(hostile(func(b []byte) []byte { // rollup tier claims 2^24 buckets in 2 bytes
		b = binary.AppendUvarint(b, 0) // no chunks
		b = binary.AppendUvarint(b, 1) // one section
		b = binary.AppendUvarint(b, sectionRollups)
		b = binary.AppendUvarint(b, 6)
		b = binary.AppendUvarint(b, 1)     // one tier
		b = binary.AppendUvarint(b, 10)    // res
		b = binary.AppendUvarint(b, 0)     // evicted
		b = binary.AppendUvarint(b, 1<<24) // buckets
		return append(b, 0)
	}))
	f.Add(hostile(func(b []byte) []byte { // unknown section id: must be rejected
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 99)
		b = binary.AppendUvarint(b, 4)
		return append(b, 0xde, 0xad, 0xbe, 0xef)
	}))
	f.Add(hostile(func(b []byte) []byte { // section length past end of file
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, sectionBlockIndex)
		b = binary.AppendUvarint(b, 1<<40)
		return b
	}))
	index := func(b []byte) []byte { // an empty block index
		return binary.AppendUvarint(binary.AppendUvarint(b, sectionBlockIndex), 0)
	}
	rollups := func(b []byte) []byte { // a rollup section of no tiers
		return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, sectionRollups), 1), 0)
	}
	f.Add(hostile(func(b []byte) []byte { // no chunks, no tiers: valid
		return rollups(index(binary.AppendUvarint(binary.AppendUvarint(b, 0), 2)))
	}))
	f.Add(hostile(func(b []byte) []byte { // the two sections swapped: must be rejected
		return index(rollups(binary.AppendUvarint(binary.AppendUvarint(b, 0), 2)))
	}))
	f.Add(hostile(func(b []byte) []byte { // a third, unknown section: must be rejected
		b = rollups(index(binary.AppendUvarint(binary.AppendUvarint(b, 0), 3)))
		return binary.AppendUvarint(binary.AppendUvarint(b, 99), 0)
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The bytes as one hostile chunk, and from inside the first chunk
		// of the valid seeds (past magic, schema and chunk header).
		checkCursorAgainstReference(t, data)
		if len(data) > fuzzFirstChunk {
			checkCursorAgainstReference(t, data[fuzzFirstChunk:])
		}
		a, err := Read(bytes.NewReader(data), Options{})
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		width := len(a.Names())
		for _, b := range a.snap.Load().blocks {
			want, wantErr := referenceDecodeRows(b.buf, b.Count, width, true)
			got, err := decodeRows(b.buf, b.Count, width, true)
			if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("accepted block: cursor rows %v (%v), reference rows %v (%v)", got, err, want, wantErr)
			}
		}
		rows, err := a.All()
		if err != nil {
			t.Fatalf("accepted archive failed to decode: %v", err)
		}
		prev := int64(-1 << 62)
		for _, r := range rows {
			if r.Timestamp <= prev {
				t.Fatalf("accepted archive has non-increasing timestamps: %d after %d", r.Timestamp, prev)
			}
			prev = r.Timestamp
			if len(r.Values) != len(a.Names()) {
				t.Fatalf("row at ts=%d has %d values for a %d-column schema", r.Timestamp, len(r.Values), len(a.Names()))
			}
		}
		// Accepted tiers must be queryable without panicking; a raw
		// window and a floor strictly inside the span cut the edge blocks.
		a.Floor(0)
		if first, last, ok := a.Span(); ok && last-first > 2 {
			a.Floor(first + (last-first)/2)
			for _, e := range a.Names() {
				if _, err := a.WindowAt(ResRaw, e.PMID, first+1, last); err != nil {
					t.Fatalf("accepted archive: raw window failed: %v", err)
				}
			}
		}
		// A raw window of one bucket on a tier's grid, from the first raw
		// row on, reads that bucket for its interior: the row scan's
		// answer, with no block cut.
		s := a.snap.Load()
		for k := 0; len(rows) > 0 && k < len(s.tiers); k++ {
			tier := &s.tiers[k]
			for x := 0; x < tier.count(); x++ {
				if t0 := tier.at(x).Start; t0 >= rows[0].Timestamp {
					parses := a.cutNext.Load()
					for c := 0; c < width; c++ {
						if diff := windowDiff(a, rows, c, t0, t0+tier.res); diff != "" {
							t.Fatalf("accepted archive: grid window on tier %v: %s", Resolution(tier.res), diff)
						}
					}
					if n := a.cutNext.Load() - parses; n != 0 {
						t.Fatalf("accepted archive: grid window [%d, %d) cut %d blocks", t0, t0+tier.res, n)
					}
				}
			}
		}
		for _, ts := range a.Stats().Tiers {
			res := ts.Resolution
			if _, _, ok := a.SpanAt(res); !ok {
				continue
			}
			if _, err := tierBuckets(a, res, math.MinInt64/2, math.MaxInt64/2); err != nil {
				t.Fatalf("accepted archive: Buckets(%v) failed: %v", res, err)
			}
			a.FloorAt(res, 0)
		}

		var out bytes.Buffer
		if _, err := a.WriteTo(&out); err != nil {
			t.Fatalf("accepted archive failed to re-serialize: %v", err)
		}
		b, err := Read(bytes.NewReader(out.Bytes()), Options{})
		if err != nil {
			t.Fatalf("round-tripped archive rejected: %v", err)
		}
		rows2, err := b.All()
		if err != nil {
			t.Fatalf("round-tripped archive failed to decode: %v", err)
		}
		if len(rows) != 0 || len(rows2) != 0 {
			if !reflect.DeepEqual(rows, rows2) {
				t.Fatalf("round trip changed samples:\n%v\n%v", rows, rows2)
			}
		}
		// Rollup tiers must survive the round trip bucket-for-bucket.
		for _, ts := range a.Stats().Tiers {
			res := ts.Resolution
			ba, errA := tierBuckets(a, res, math.MinInt64/2, math.MaxInt64/2)
			bb, errB := tierBuckets(b, res, math.MinInt64/2, math.MaxInt64/2)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("round trip changed tier %v availability: %v vs %v", res, errA, errB)
			}
			if len(ba) != 0 || len(bb) != 0 {
				if !reflect.DeepEqual(ba, bb) {
					t.Fatalf("round trip changed tier %v buckets:\n%v\n%v", res, ba, bb)
				}
			}
		}
		// Appends continue on a loaded archive, folding into tiers seeded
		// from the file: the next row is the newest at every resolution.
		if last := b.snap.Load().lastTS; last < math.MaxInt64 {
			if err := b.AppendSample(Sample{Timestamp: last + 1, Values: make([]uint64, width)}); err != nil {
				t.Fatalf("append after load: %v", err)
			}
			for _, res := range append([]Resolution{ResRaw}, tierResolutions(b)...) {
				if _, end, ok := b.SpanAt(res); !ok || end != last+1 {
					t.Fatalf("after an append at %d, SpanAt(%v) ends at %d (%v)", last+1, res, end, ok)
				}
			}
		}
	})
}
