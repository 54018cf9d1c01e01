package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"papimc/internal/pcp"
)

// goldenRows regenerates the exact rows the golden archive holds: a
// counter that wraps past 2^64 mid-archive, a well-behaved counter, and
// a decreasing level.
func goldenRows() []Sample {
	rows := make([]Sample, 37)
	v0 := ^uint64(0) - 5000
	for i := range rows {
		rows[i] = Sample{
			Timestamp: int64(i) * 500_000_000,
			Values: []uint64{
				v0 + uint64(i)*400, // wraps between i=12 and i=13
				uint64(i) * 64,
				10000 - uint64(i)*100,
			},
		}
	}
	return rows
}

// TestGoldenInterop is the on-disk compatibility pin: committed bytes,
// hash-pinned so the fixture cannot drift, must read unchanged — same
// schema, same rows, same wrap-corrected query answers at raw and rollup
// resolution — and WriteTo must reproduce them byte for byte.
func TestGoldenInterop(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden.pmlog"))
	if err != nil {
		t.Fatal(err)
	}
	const wantSHA = "504ef6005f0e12312008cf5ce4daf40d2deda062d66a39d462e44982c142abb2"
	if got := hex.EncodeToString(sha256Sum(data)); got != wantSHA {
		t.Fatalf("golden fixture drifted: sha256 %s, want %s", got, wantSHA)
	}

	a, err := Read(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatalf("golden archive no longer reads: %v", err)
	}
	wantNames := []pcp.NameEntry{
		{PMID: 1, Name: "golden.counter.a"},
		{PMID: 2, Name: "golden.counter.b"},
		{PMID: 9, Name: "golden.level.c"},
	}
	if got := a.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("schema = %+v, want %+v", got, wantNames)
	}
	rows, err := a.All()
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenRows(); !reflect.DeepEqual(rows, want) {
		t.Fatalf("decoded rows differ from the golden rows")
	}

	// Query semantics across the recorded wrap are preserved: column 1
	// gains 400 per 500ms = 800/s, through the wrap, exactly.
	if rate, err := rateAt(a, ResRaw, 1, 0, 36*500_000_000); err != nil || rate != 800 {
		t.Errorf("Rate over golden archive = %v, %v; want exactly 800", rate, err)
	}
	if rate, err := rateAt(a, ResRaw, 9, 0, 36*500_000_000); err != nil || rate != -200 {
		t.Errorf("Rate of golden level = %v, %v; want exactly -200", rate, err)
	}
	// The stored rollups agree with the raw path.
	if rate, err := rateAt(a, Res10s, 1, 0, 36*500_000_000); err != nil || rate != 800 {
		t.Errorf("rollup Rate over golden archive = %v, %v; want exactly 800", rate, err)
	}

	var out bytes.Buffer
	if _, err := a.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("WriteTo of the golden archive changed its bytes")
	}
}

func sha256Sum(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

// TestV2RoundTripTiers: rollup tiers — including evicted-bucket counts
// and history extending past the retained raw rows after compaction —
// survive WriteTo/Read bucket-for-bucket.
func TestV2RoundTripTiers(t *testing.T) {
	a, _ := New(schema(2), Options{
		BlockSamples: 8,
		Rollups:      []int64{100, 1000},
		RawRetention: 2000,
	})
	for i := 0; i < 400; i++ {
		if err := a.Append(row(int64(i)*25, uint64(i)*7, ^uint64(0)-uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats().Folded == 0 {
		t.Fatal("appends folded nothing; retention config broken")
	}
	rawFirst, _, _ := a.Span()
	tFirst, _, _ := a.SpanAt(Resolution(100))
	if tFirst >= rawFirst {
		t.Fatalf("rollups should cover folded history: tier starts %d, raw starts %d", tFirst, rawFirst)
	}

	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.All()
	rb, _ := b.All()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("raw rows changed over round trip")
	}
	for _, res := range []Resolution{100, 1000} {
		ba, err := tierBuckets(a, res, -1<<60, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := tierBuckets(b, res, -1<<60, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ba, bb) {
			t.Fatalf("tier %v buckets changed over round trip", res)
		}
	}
	// The reloaded archive keeps answering over the folded span.
	vA, errA := rateAt(a, Resolution(100), 1, 0, 5000)
	vB, errB := rateAt(b, Resolution(100), 1, 0, 5000)
	if errA != nil || errB != nil || vA != vB {
		t.Fatalf("rollup rate diverged after reload: %v/%v vs %v/%v", vA, errA, vB, errB)
	}
	// And appends continue cleanly after a reload.
	if err := b.Append(row(400*25, 400*7, ^uint64(0)-400)); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(row(0, 1, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("stale append after reload = %v, want ErrOutOfOrder", err)
	}
}

// TestV2RejectsBucketContradictingRows: a raw window reads the buckets
// that start inside the retained raw span in place of their rows, so a
// file whose 1 s bucket there disagrees with its rows is rejected; a
// bucket of folded history, before the raw span, loads as written.
func TestV2RejectsBucketContradictingRows(t *testing.T) {
	const sec = int64(1_000_000_000)
	for _, c := range []struct {
		name  string
		wrong func(rawFirst int64) int64 // Start of the bucket to corrupt
		want  error
	}{
		{"every bucket true", func(int64) int64 { return -1 }, nil},
		{"a wrong bucket inside the raw span", func(first int64) int64 { return (first/sec + 2) * sec }, ErrFormat},
		{"a wrong bucket in folded history", func(int64) int64 { return 5 * sec }, nil},
	} {
		a, _ := New(schema(2), Options{BlockSamples: 8, Rollups: []int64{sec}, RawRetention: 10 * sec})
		for i := int64(0); i < 400; i++ {
			if err := a.Append(row(i*sec/10, uint64(i)*7, uint64(i%5))); err != nil {
				t.Fatal(err)
			}
		}
		if a.Stats().Folded == 0 {
			t.Fatal("nothing folded: the folded history is not exercised")
		}
		s := a.snap.Load()
		first, _, _ := s.rawSpan()
		at := c.wrong(first)
		for k := range s.tiers[0].done {
			if b := &s.tiers[0].done[k]; b.Start == at {
				b.Cols[0].Delta++
			}
		}
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf, Options{}); !errors.Is(err, c.want) {
			t.Errorf("%s (raw from %d): Read = %v, want %v", c.name, first, err, c.want)
		}
	}
}

// TestV2RejectsCorruptSections: hostile section contents are rejected
// with ErrFormat, never accepted silently.
func TestV2RejectsCorruptSections(t *testing.T) {
	a, _ := New(schema(1), Options{BlockSamples: 4, Rollups: []int64{100}})
	for i := 0; i < 20; i++ {
		if err := a.Append(row(int64(i)*10, uint64(i)*3)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	if _, err := Read(bytes.NewReader(pristine), Options{}); err != nil {
		t.Fatalf("pristine archive rejected: %v", err)
	}
	// Truncations anywhere in the file must fail cleanly (the sections
	// live at the end, so the tail truncations hit the index/rollups).
	for cut := len(pristine) - 1; cut > len(fileMagic); cut -= 7 {
		if _, err := Read(bytes.NewReader(pristine[:cut]), Options{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Flipping bytes in the trailing sections must never be silently
	// accepted as different data: either rejected (index mismatch,
	// invariant violation) or — for fields like the evicted count or a
	// float sum where any value is structurally valid — decoded to a
	// queryable archive.
	for off := len(pristine) - 1; off > len(pristine)*3/4; off-- {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0x40
		b, err := Read(bytes.NewReader(mut), Options{})
		if err != nil {
			continue
		}
		if _, err := b.All(); err != nil {
			t.Fatalf("accepted archive (flip at %d) fails to decode: %v", off, err)
		}
	}

	// Any section layout but WriteTo's — exactly two, the block index
	// then the rollups — is rejected, an unknown section included.
	p := &parser{buf: pristine[len(fileMagic):]}
	readSchema(p)
	for n := p.uv(); n > 0; n-- {
		p.uv()
		p.bytes(p.uv())
	}
	head := pristine[:len(pristine)-len(p.buf)]
	p.uv() // the section count
	var secs [][]byte
	for p.err == nil && len(p.buf) > 0 {
		rest := p.buf
		p.uv()
		p.bytes(p.uv())
		secs = append(secs, rest[:len(rest)-len(p.buf)])
	}
	if p.err != nil || len(secs) != 2 {
		t.Fatalf("pristine archive has %d sections (%v), want 2", len(secs), p.err)
	}
	unknown := binary.AppendUvarint(binary.AppendUvarint(nil, 77), 5)
	unknown = append(unknown, "hello"...)
	for _, c := range []struct {
		name string
		secs [][]byte
	}{
		{"an unknown section first", [][]byte{unknown, secs[0], secs[1]}},
		{"an unknown section last", [][]byte{secs[0], secs[1], unknown}},
		{"an unknown section for the rollups", [][]byte{secs[0], unknown}},
		{"the sections swapped", [][]byte{secs[1], secs[0]}},
		{"no rollup section", [][]byte{secs[0]}},
		{"no sections", nil},
	} {
		file := binary.AppendUvarint(append([]byte(nil), head...), uint64(len(c.secs)))
		for _, sec := range c.secs {
			file = append(file, sec...)
		}
		if _, err := Read(bytes.NewReader(file), Options{}); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: Read = %v, want ErrFormat", c.name, err)
		}
	}
}

// TestReloadKeepsFileTierBound: a reloaded archive folds into the
// file's tiers, so it rejects a timestamp whose bucket in those tiers
// would overflow, as a fresh archive with the same tiers does, instead
// of accepting a row its next WriteTo would turn into an unreadable file.
func TestReloadKeepsFileTierBound(t *testing.T) {
	const hour = int64(3_600_000_000_000)
	a, err := New(schema(1), Options{Rollups: []int64{hour}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(row(0, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := alignDown(math.MaxInt64-hour, hour) + hour
	if err := a.Append(row(ts, 2)); !errors.Is(err, ErrRange) {
		t.Fatalf("fresh archive: Append at %d = %v, want ErrRange", ts, err)
	}
	if err := b.Append(row(ts, 2)); !errors.Is(err, ErrRange) {
		t.Fatalf("reloaded archive: Append at %d = %v, want ErrRange", ts, err)
	}
}

// TestReadRejectsLyingChunkCounts: a chunk claiming more rows than its
// bytes can hold is rejected before any large allocation happens.
func TestReadRejectsLyingChunkCounts(t *testing.T) {
	var b []byte
	b = append(b, fileMagic...)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 1)
	b = binary.AppendUvarint(b, 1)
	b = append(b, 'x')
	b = binary.AppendUvarint(b, 1)     // one chunk
	b = binary.AppendUvarint(b, 1<<24) // claiming 16M rows
	b = binary.AppendUvarint(b, 4)     // ... in 4 bytes
	b = append(b, 1, 2, 3, 4)
	b = binary.AppendUvarint(b, 0) // no sections
	if _, err := Read(bytes.NewReader(b), Options{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("lying chunk count err = %v, want ErrFormat", err)
	}
}
