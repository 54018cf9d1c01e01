package archive

import (
	"bytes"
	"errors"
	"testing"

	"papimc/internal/pcp"
)

func schema(n int) []pcp.NameEntry {
	out := make([]pcp.NameEntry, n)
	for i := range out {
		out[i] = pcp.NameEntry{PMID: uint32(i + 1), Name: string(rune('a' + i))}
	}
	return out
}

func row(ts int64, vals ...uint64) pcp.FetchResult {
	res := pcp.FetchResult{Timestamp: ts}
	for i, v := range vals {
		res.Values = append(res.Values, pcp.FetchValue{PMID: uint32(i + 1), Status: pcp.StatusOK, Value: v})
	}
	return res
}

func TestAppendAndScan(t *testing.T) {
	a, err := New(schema(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]uint64{{0, 10, 20}, {5, 11, 20}, {9, 400, 25}, {12, 400, 25}}
	for _, w := range want {
		if err := a.Append(row(int64(w[0]), w[1], w[2])); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := a.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Timestamp != int64(want[i][0]) || r.Values[0] != want[i][1] || r.Values[1] != want[i][2] {
			t.Errorf("row %d = %+v, want %v", i, r, want[i])
		}
	}
	mid, err := a.Samples(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != 2 || mid[0].Timestamp != 5 || mid[1].Timestamp != 9 {
		t.Errorf("range scan = %+v", mid)
	}
}

func TestAppendDedupAndOrder(t *testing.T) {
	a, _ := New(schema(1), Options{})
	if err := a.Append(row(10, 1)); err != nil {
		t.Fatal(err)
	}
	// Same daemon sample again: silently deduplicated.
	if err := a.Append(row(10, 1)); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Samples != 1 {
		t.Errorf("len after dup = %d, want 1", a.Stats().Samples)
	}
	if err := a.Append(row(5, 2)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order err = %v", err)
	}
}

func TestAppendSchemaMismatch(t *testing.T) {
	a, _ := New(schema(2), Options{})
	// Missing a schema PMID.
	res := pcp.FetchResult{Timestamp: 1, Values: []pcp.FetchValue{{PMID: 1, Status: pcp.StatusOK, Value: 3}}}
	if err := a.Append(res); !errors.Is(err, ErrSchema) {
		t.Errorf("missing pmid err = %v", err)
	}
	// A schema PMID with an error status.
	res = row(1, 3, 4)
	res.Values[1].Status = pcp.StatusValueError
	if err := a.Append(res); !errors.Is(err, ErrSchema) {
		t.Errorf("bad status err = %v", err)
	}
}

func TestRingRetentionEvictsOldest(t *testing.T) {
	a, _ := New(schema(1), Options{MaxBytes: 256, BlockSamples: 8})
	for i := 0; i < 1000; i++ {
		if err := a.Append(row(int64(i*10), uint64(i*64))); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Appended != 1000 {
		t.Errorf("appended = %d", st.Appended)
	}
	if st.Evicted == 0 || st.Samples+st.Evicted != 1000 {
		t.Errorf("evicted = %d, retained = %d", st.Evicted, st.Samples)
	}
	if st.EncodedBytes > 256+64 { // one block of slack while appending
		t.Errorf("encoded bytes %d exceed budget", st.EncodedBytes)
	}
	// The newest samples survive.
	first, last, ok := a.Span()
	if !ok || last != 999*10 || first == 0 {
		t.Errorf("span = [%d, %d], ok=%v", first, last, ok)
	}
	rows, err := a.All()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Timestamp <= rows[i-1].Timestamp {
			t.Fatalf("retained rows not monotonic at %d", i)
		}
	}
	// Decoding across eviction boundaries is exact: values are ts/10*64.
	for _, r := range rows {
		if r.Values[0] != uint64(r.Timestamp/10)*64 {
			t.Errorf("row ts=%d value=%d, want %d", r.Timestamp, r.Values[0], uint64(r.Timestamp/10)*64)
		}
	}
}

func TestDeltaEncodingCompresses(t *testing.T) {
	a, _ := New(schema(8), Options{})
	vals := make([]uint64, 8)
	for i := 0; i < 500; i++ {
		res := pcp.FetchResult{Timestamp: int64(i) * 10_000_000}
		for c := range vals {
			vals[c] += uint64(64 * (c + 1))
			res.Values = append(res.Values, pcp.FetchValue{PMID: uint32(c + 1), Status: pcp.StatusOK, Value: vals[c]})
		}
		if err := a.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.EncodedBytes*3 > st.RawBytes {
		t.Errorf("delta encoding gained <3x: %d encoded vs %d raw", st.EncodedBytes, st.RawBytes)
	}
}

func TestFloorNearestValueAtRate(t *testing.T) {
	a, _ := New(schema(1), Options{})
	for _, r := range [][2]uint64{{100, 1000}, {200, 3000}, {300, 5000}} {
		if err := a.Append(row(int64(r[0]), r[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := a.Floor(99); ok {
		t.Error("Floor before first sample should miss")
	}
	if s, ok := a.Floor(250); !ok || s.Timestamp != 200 {
		t.Errorf("Floor(250) = %+v, %v", s, ok)
	}
	if s, ok := a.Floor(300); !ok || s.Timestamp != 300 {
		t.Errorf("Floor(300) = %+v, %v", s, ok)
	}
	// 4000 counts over 200 ns = 4000 / 200e-9 s.
	rate, err := rateAt(a, ResRaw, 1, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := 4000.0 / (200.0 / 1e9)
	if rate < want*0.999 || rate > want*1.001 {
		t.Errorf("Rate = %g, want %g", rate, want)
	}
	if _, err := rateAt(a, ResRaw, 999, 100, 300); !errors.Is(err, ErrNoPMID) {
		t.Errorf("unknown pmid rate err = %v", err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	a, _ := New(schema(3), Options{BlockSamples: 4})
	for i := 0; i < 37; i++ {
		if err := a.Append(row(int64(i)*7, uint64(i)*3, uint64(i*i), 42)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantNames, gotNames := a.Names(), b.Names()
	if len(gotNames) != len(wantNames) {
		t.Fatalf("names len = %d, want %d", len(gotNames), len(wantNames))
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] {
			t.Errorf("name %d = %+v, want %+v", i, gotNames[i], wantNames[i])
		}
	}
	ra, _ := a.All()
	rb, _ := b.All()
	if len(ra) != len(rb) {
		t.Fatalf("rows = %d, want %d", len(rb), len(ra))
	}
	for i := range ra {
		if ra[i].Timestamp != rb[i].Timestamp {
			t.Errorf("row %d ts mismatch", i)
		}
		for c := range ra[i].Values {
			if ra[i].Values[c] != rb[i].Values[c] {
				t.Errorf("row %d col %d mismatch", i, c)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not an archive")), Options{}); !errors.Is(err, ErrFormat) {
		t.Errorf("garbage err = %v", err)
	}
	if _, err := Read(bytes.NewReader([]byte("PMLG1\n")), Options{}); err == nil {
		t.Error("truncated archive accepted")
	}
}

// TestRateCounterWrap is the regression test for the wraparound bug:
// Rate used to difference raw float64 values, so a uint64
// counter wrapping between samples produced a huge negative rate. The
// wrap-corrected delta (pcp.CounterDelta) must yield the true small
// positive rate, exactly.
func TestRateCounterWrap(t *testing.T) {
	a, _ := New(schema(2), Options{})
	// Column a: counter wrapping past 2^64 between the 2nd and 3rd
	// samples (true increment 800/s throughout). Column b: an instant
	// level genuinely decreasing — must NOT be wrap-"corrected".
	v0 := ^uint64(0) - 1000
	rows := []struct {
		ts   int64
		a, b uint64
	}{
		{0, v0, 5000},
		{1_000_000_000, v0 + 800, 4000},
		{2_000_000_000, v0 + 1600, 3000}, // a wraps: stored value 599
	}
	if rows[2].a >= v0 {
		t.Fatal("test setup: counter did not wrap")
	}
	for _, r := range rows {
		if err := a.Append(row(r.ts, r.a, r.b)); err != nil {
			t.Fatal(err)
		}
	}

	if rate, err := rateAt(a, ResRaw, 1, 0, 2_000_000_000); err != nil || rate != 800 {
		t.Errorf("Rate across wrap = %v, %v; want exactly 800", rate, err)
	}
	if rate, err := rateAt(a, ResRaw, 1, 1_000_000_000, 2_000_000_000); err != nil || rate != 800 {
		t.Errorf("Rate of wrapping segment = %v, %v; want exactly 800", rate, err)
	}
	// Partial overlap: half of each segment, still 800/s.
	if rate, err := rateAt(a, ResRaw, 1, 500_000_000, 1_500_000_000); err != nil || rate != 800 {
		t.Errorf("Rate over partial window = %v, %v; want exactly 800", rate, err)
	}
	// A decreasing instant metric is a real decrease, not a wrap.
	if rate, err := rateAt(a, ResRaw, 2, 0, 2_000_000_000); err != nil || rate != -1000 {
		t.Errorf("Rate of decreasing level = %v, %v; want exactly -1000", rate, err)
	}
}
