package workload

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzTraceBytes records a small deterministic run to seed the corpus.
func fuzzTraceBytes(tb testing.TB, mult float64) []byte {
	tb.Helper()
	spec := &Spec{
		Name: "fuzz", Seed: 5, Duration: 2e9,
		Server: ServerSpec{Servers: 2, Base: 1e6, SizeRef: 4},
		Cohorts: []CohortSpec{
			{Name: "a", Clients: 20, Rate: 40, Size: SizeSpec{Min: 1, Alpha: 1.1, Max: 32}},
			{Name: "b", Clients: 5, Rate: 10},
		},
	}
	var tr Trace
	if _, err := Run(spec, Options{Mult: mult, Record: &tr}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTrace hammers the varint-delta trace decoder with hostile
// input, mirroring archive.FuzzReadArchive. Two properties:
//
//  1. Totality: ReadTrace never panics or over-allocates — any input is
//     decoded or rejected with an error wrapping ErrTrace.
//  2. Soundness: an accepted input yields a well-formed trace —
//     nondecreasing timestamps, in-range fields — that round-trips
//     through WriteTo/ReadTrace to identical rows.
func FuzzReadTrace(f *testing.F) {
	valid := fuzzTraceBytes(f, 1)
	f.Add(valid)
	f.Add(fuzzTraceBytes(f, 0.25))
	// Truncations at structurally interesting places.
	for _, n := range []int{0, 3, len(traceMagic), len(traceMagic) + 2, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	// Single-bit flips in the header, cohort table, and delta stream.
	for _, off := range []int{1, len(traceMagic), len(traceMagic) + 4, len(valid) / 2, len(valid) - 2} {
		b := append([]byte(nil), valid...)
		b[off] ^= 0x10
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTrace) {
				t.Fatalf("decode error %v does not wrap ErrTrace", err)
			}
			return
		}
		prev := int64(0)
		for i := range tr.Rows {
			r := &tr.Rows[i]
			if r.T < prev {
				t.Fatalf("accepted trace has decreasing timestamp at row %d", i)
			}
			prev = r.T
			if int(r.Cohort) >= len(tr.Cohorts) || r.Class >= NumClasses || r.Status > 1 {
				t.Fatalf("accepted trace has out-of-range row %d: %+v", i, r)
			}
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("accepted trace fails to re-encode: %v", err)
		}
		again, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(tr.Rows, again.Rows) || !reflect.DeepEqual(tr.Cohorts, again.Cohorts) {
			t.Fatal("round trip changed the trace")
		}
	})
}

// FuzzParseSpec hammers the spec decoder, seeded with the committed
// specs and every TestParseSpecErrors case. Three properties: ParseSpec
// never panics; every rejection wraps ErrSpec; and an accepted spec is
// already normalized — validating it again changes nothing.
func FuzzParseSpec(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "workload-specs", "*.json"))
	for _, p := range append(paths, filepath.Join("testdata", "diurnal.json")) {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, src := range parseSpecErrorCases {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("parse error %v does not wrap ErrSpec", err)
			}
			return
		}
		before := s.String()
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails a second Validate: %v", err)
		}
		if after := s.String(); after != before {
			t.Fatalf("second Validate changed the spec:\n%s--- became ---\n%s", before, after)
		}
	})
}
