package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"papimc/internal/pcp"
)

// goldenRows regenerates the exact rows the golden v1 archive was built
// from (by the pre-rollup code): a counter that wraps past 2^64
// mid-archive, a well-behaved counter, and a decreasing level.
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

// TestGoldenV1Interop is the on-disk compatibility pin: a v1 archive
// written by the pre-rollup code (committed bytes, hash-pinned so the
// fixture cannot drift) must read unchanged — same schema, same rows,
// same wrap-corrected query answers — and its rollup tiers must be
// rebuilt from the raw rows on load.
func TestGoldenV1Interop(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_v1.pmlog"))
	if err != nil {
		t.Fatal(err)
	}
	const wantSHA = "a14651db14a0d357c7befa4f1f317393871858f8641e4060e61acd4629ee7fe6"
	if got := hex.EncodeToString(sha256Sum(data)); got != wantSHA {
		t.Fatalf("golden fixture drifted: sha256 %s, want %s", got, wantSHA)
	}
	if !bytes.HasPrefix(data, []byte(fileMagicV1)) {
		t.Fatalf("golden fixture is not a v1 archive")
	}

	a, err := Read(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatalf("v1 archive no longer reads: %v", err)
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
		t.Fatalf("decoded rows differ from the pre-change writer's input")
	}

	// Query semantics across the recorded wrap are preserved: column 1
	// gains 400 per 500ms = 800/s, through the wrap, exactly.
	if rate, err := a.Rate(1, 0, 36*500_000_000); err != nil || rate != 800 {
		t.Errorf("Rate over golden archive = %v, %v; want exactly 800", rate, err)
	}
	if rate, err := a.Rate(9, 0, 36*500_000_000); err != nil || rate != -200 {
		t.Errorf("Rate of golden level = %v, %v; want exactly -200", rate, err)
	}
	// Rollups were rebuilt from the raw rows and agree with the raw path.
	if rate, err := rateAt(a, Res10s, 1, 0, 36*500_000_000); err != nil || rate != 800 {
		t.Errorf("rollup Rate over golden archive = %v, %v; want exactly 800", rate, err)
	}

	// Re-serializing upgrades to v2; the rows survive untouched.
	var out bytes.Buffer
	if _, err := a.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out.Bytes(), []byte(fileMagicV2)) {
		t.Fatalf("WriteTo no longer emits v2")
	}
	b, err := Read(&out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := b.All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, rows2) {
		t.Fatalf("v1 -> v2 upgrade changed rows")
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
	if a.Compact() == 0 {
		t.Fatal("compaction folded nothing; retention config broken")
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
		ba, err := a.Buckets(res, -1<<60, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Buckets(res, -1<<60, 1<<60)
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

// TestV2UnknownSectionSkipped: forward compatibility — a reader must
// skip section ids it does not know.
func TestV2UnknownSectionSkipped(t *testing.T) {
	a, _ := New(schema(1), Options{BlockSamples: 4})
	for i := 0; i < 10; i++ {
		if err := a.Append(row(int64(i)*5, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Splice an unknown section in front of the existing ones: bump the
	// section count and prepend id=77.
	data := buf.Bytes()
	// Find the section-count byte: re-serialize by hand is fragile, so
	// instead append is not possible (trailing bytes are rejected).
	// Re-encode: parse up to the section count, then rebuild.
	p := &parser{buf: data[len(fileMagicV2):]}
	if _, err := readSchema(p); err != nil {
		t.Fatal(err)
	}
	nChunks := p.uv()
	for i := uint64(0); i < nChunks; i++ {
		p.uv()
		blen := p.uv()
		p.bytes(blen)
	}
	if p.err != nil {
		t.Fatal(p.err)
	}
	head := data[:len(data)-len(p.buf)]
	rest := p.buf // nSections + sections
	nSections, n := binary.Uvarint(rest)
	if n <= 0 {
		t.Fatal("bad section count")
	}
	var spliced []byte
	spliced = append(spliced, head...)
	spliced = binary.AppendUvarint(spliced, nSections+1)
	spliced = binary.AppendUvarint(spliced, 77) // unknown id
	spliced = binary.AppendUvarint(spliced, 5)
	spliced = append(spliced, "hello"...)
	spliced = append(spliced, rest[n:]...)

	b, err := Read(bytes.NewReader(spliced), Options{})
	if err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
	ra, _ := a.All()
	rb, _ := b.All()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("rows changed with unknown section present")
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
	for cut := len(pristine) - 1; cut > len(fileMagicV2); cut -= 7 {
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
}

// TestReadRejectsLyingChunkCounts: a chunk claiming more rows than its
// bytes can hold is rejected before any large allocation happens.
func TestReadRejectsLyingChunkCounts(t *testing.T) {
	var b []byte
	b = append(b, fileMagicV2...)
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
