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
const fuzzFirstChunk = len(fileMagicV2) + 1 + 3*(2+13) + 3

// fuzzArchiveBytes serializes a small valid archive (current format
// version) to seed the corpus.
func fuzzArchiveBytes(tb testing.TB, rows int) []byte {
	tb.Helper()
	a, err := New([]pcp.NameEntry{
		{PMID: 1, Name: "fuzz.metric.a"},
		{PMID: 2, Name: "fuzz.metric.b"},
		{PMID: 7, Name: "fuzz.metric.c"},
	}, Options{BlockSamples: 4, Rollups: []int64{40, 200}})
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

// fuzzArchiveBytesV1 builds the same rows in the legacy v1 single-stream
// format, so the fuzzer exercises the legacy read path too.
func fuzzArchiveBytesV1(rows int) []byte {
	names := []pcp.NameEntry{
		{PMID: 1, Name: "fuzz.metric.a"},
		{PMID: 2, Name: "fuzz.metric.b"},
		{PMID: 7, Name: "fuzz.metric.c"},
	}
	var buf []byte
	buf = append(buf, fileMagicV1...)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, e := range names {
		buf = binary.AppendUvarint(buf, uint64(e.PMID))
		buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
	}
	buf = binary.AppendUvarint(buf, uint64(rows))
	var prev Sample
	for i := 0; i < rows; i++ {
		row := Sample{
			Timestamp: int64(i) * 10,
			Values:    []uint64{uint64(i) * 100, 1 << (uint(i) % 60), ^uint64(0) - uint64(i)},
		}
		if i == 0 {
			buf = binary.AppendVarint(buf, row.Timestamp)
			for _, v := range row.Values {
				buf = binary.AppendUvarint(buf, v)
			}
		} else {
			buf = binary.AppendVarint(buf, row.Timestamp-prev.Timestamp)
			for c, v := range row.Values {
				buf = binary.AppendVarint(buf, int64(v-prev.Values[c]))
			}
		}
		prev = row
	}
	return buf
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

// FuzzReadArchive hammers the archive decoder — both format versions,
// including the v2 block-index and rollup sections — with hostile
// input. Two properties:
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
	empty := fuzzArchiveBytes(f, 0)
	valid := fuzzArchiveBytes(f, 9)
	big := fuzzArchiveBytes(f, 23) // several sealed blocks + completed buckets
	legacy := fuzzArchiveBytesV1(9)
	f.Add(empty)
	f.Add(valid)
	f.Add(big)
	f.Add(legacy)
	// Truncations at structurally interesting places: inside the magic,
	// the schema, the chunk table, and the trailing sections.
	for _, n := range []int{0, 3, len(fileMagicV2), len(fileMagicV2) + 2, len(big) / 2, len(big) * 3 / 4, len(big) - 1} {
		f.Add(big[:n])
	}
	f.Add(legacy[:len(legacy)/2])
	// Single-bit flips in the header, schema, chunk lengths, delta
	// stream, and section payloads (index timestamps, bucket counts).
	for _, off := range []int{1, len(fileMagicV2), len(fileMagicV2) + 4, len(big) / 3, len(big) / 2, len(big) * 7 / 8, len(big) - 2} {
		b := append([]byte(nil), big...)
		b[off] ^= 0x10
		f.Add(b)
	}
	f.Add([]byte(fileMagicV1))
	f.Add([]byte(fileMagicV2))
	f.Add([]byte("not an archive at all"))
	// Hostile hand-built v2 skeletons: huge chunk/bucket counts that a
	// naive decoder would pre-allocate, an unknown section (must be
	// skipped), and an empty-section file.
	hostile := func(build func(b []byte) []byte) []byte {
		var b []byte
		b = append(b, fileMagicV2...)
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
	f.Add(hostile(func(b []byte) []byte { // unknown section id: must be skipped
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
		for _, ts := range a.Stats().Tiers {
			res := ts.Resolution
			if _, _, ok := a.SpanAt(res); !ok {
				continue
			}
			if _, err := a.Buckets(res, math.MinInt64/2, math.MaxInt64/2); err != nil {
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
			ba, errA := a.Buckets(res, math.MinInt64/2, math.MaxInt64/2)
			bb, errB := b.Buckets(res, math.MinInt64/2, math.MaxInt64/2)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("round trip changed tier %v availability: %v vs %v", res, errA, errB)
			}
			if len(ba) != 0 || len(bb) != 0 {
				if !reflect.DeepEqual(ba, bb) {
					t.Fatalf("round trip changed tier %v buckets:\n%v\n%v", res, ba, bb)
				}
			}
		}
	})
}
