package metricql

import (
	"math"
	"strings"
	"testing"

	"papimc/internal/pcp"
)

// fakeSource is a scriptable metric source: the test moves vals/ts
// between fetches and the engine sees a daemon-like sample stream.
type fakeSource struct {
	names   []pcp.NameEntry
	vals    map[uint32]uint64
	ts      int64
	fetches int
	fail    map[uint32]int32 // pmid -> non-OK status to return
}

func (f *fakeSource) Names() ([]pcp.NameEntry, error) { return f.names, nil }

func (f *fakeSource) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	f.fetches++
	res := pcp.FetchResult{Timestamp: f.ts}
	for _, id := range pmids {
		if st, bad := f.fail[id]; bad {
			res.Values = append(res.Values, pcp.FetchValue{PMID: id, Status: st})
			continue
		}
		v, ok := f.vals[id]
		st := pcp.StatusOK
		if !ok {
			st = pcp.StatusNoSuchPMID
		}
		res.Values = append(res.Values, pcp.FetchValue{PMID: id, Status: st, Value: v})
	}
	return res, nil
}

func newFake() *fakeSource {
	return &fakeSource{
		names: []pcp.NameEntry{
			{PMID: 1, Name: "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value.cpu87"},
			{PMID: 2, Name: "perfevent.hwcounters.nest_mba1_imc.PM_MBA1_READ_BYTES.value.cpu87"},
			{PMID: 3, Name: "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value.cpu87"},
			{PMID: 4, Name: "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value.cpu175"},
			{PMID: 5, Name: "kernel.load"},
		},
		vals: map[uint32]uint64{1: 0, 2: 0, 3: 0, 4: 0, 5: 10},
		ts:   0,
	}
}

func newEngineFake() (*Engine, *fakeSource) {
	f := newFake()
	e := NewEngine(f)
	e.AliasAll(NestAliases(f.names))
	return e, f
}

func TestParseCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a + b * c", "(a + (b * c))"},
		{"(a+b)*c", "((a + b) * c)"},
		{"a * b", "(a * b)"},
		{"a*b", "a*b"}, // unspaced '*' between name chars is a glob
		{"2*3", "(2 * 3)"},
		{"-x", "(-x)"},
		{"-3", "-3"},
		{"1.5e3", "1500"},
		{"sum(nest.mba*.read_bytes)", "sum(nest.mba*.read_bytes)"},
		{"rate(nest.mba[0-7].read_bytes)", "rate(nest.mba[0-7].read_bytes)"},
		{"avg_over(kernel.load, 500ms)", "avg_over(kernel.load, 500000000ns)"},
		{"max_over(x, 1.5s)", "max_over(x, 1500000000ns)"},
		{"rate(a)*3", "(rate(a) * 3)"},
		{"a - -b", "(a - (-b))"},
	}
	for _, c := range cases {
		ex, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := ex.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical forms must reparse to themselves.
		ex2, err := Parse(c.want)
		if err != nil {
			t.Errorf("reparse %q: %v", c.want, err)
			continue
		}
		if ex2.String() != c.want {
			t.Errorf("canonical %q not a fixed point: reparses to %q", c.want, ex2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"a +",
		"(a",
		"a)",
		"foo(a)",          // unknown function
		"rate(a + b)",     // rate needs a plain metric
		"rate(3)",         // ditto
		"sum(a, b)",       // sum takes one argument
		"avg_over(a)",     // missing window
		"avg_over(a, b)",  // window must be a duration
		"avg_over(a, 5)",  // plain number is not a duration
		"avg_over(a, 0s)", // window must be positive
		"500ms",           // bare duration
		"3x",              // bad unit
		"a $ b",
		"a[0-",
		strings.Repeat("(", 300) + "a" + strings.Repeat(")", 300), // too deep
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
	if _, err := Parse(strings.Repeat("a", maxExprBytes+1)); err == nil {
		t.Error("over-long expression accepted")
	}
}

func TestParseInstant(t *testing.T) {
	for in, want := range map[string]bool{
		"a + b":                 false,
		"sum(nest.mba*.x)":      false,
		"rate(a)":               true,
		"sum(rate(a))":          true,
		"delta(a) + 3":          true,
		"avg_over(a, 1s)":       true,
		"max_over(rate(a), 1s)": true,
		"(a / b) * 100":         false,
	} {
		ex, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := ex.Instant(); got != want {
			t.Errorf("Instant(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestNestAliases(t *testing.T) {
	f := newFake()
	a := NestAliases(f.names)
	for alias, raw := range map[string]string{
		"nest.mba0.read_bytes":        "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value.cpu87",
		"nest.mba0.read_bytes.cpu87":  "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value.cpu87",
		"nest.mba0.read_bytes.cpu175": "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value.cpu175",
		"nest.mba0.write_bytes":       "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value.cpu87",
		"nest.mba1.read_bytes":        "perfevent.hwcounters.nest_mba1_imc.PM_MBA1_READ_BYTES.value.cpu87",
	} {
		if a[alias] != raw {
			t.Errorf("alias %q = %q, want %q", alias, a[alias], raw)
		}
	}
}

func TestGlobExpansion(t *testing.T) {
	e, _ := newEngineFake()
	q, err := e.Query("sum(nest.mba*.read_bytes)")
	if err != nil {
		t.Fatal(err)
	}
	// The bare glob matches the socket-0 aliases only (mba0, mba1), not
	// the .cpu175 qualified instance of mba0.
	ids := make(map[uint32]bool)
	collectPMIDs(q.root, ids)
	if len(ids) != 2 || !ids[1] || !ids[2] {
		t.Fatalf("pattern expanded to pmids %v, want {1, 2}", ids)
	}
	// Qualified glob reaches the other socket.
	q2, err := e.Query("sum(nest.mba*.read_bytes.cpu175)")
	if err != nil {
		t.Fatal(err)
	}
	ids2 := make(map[uint32]bool)
	collectPMIDs(q2.root, ids2)
	if len(ids2) != 1 || !ids2[4] {
		t.Fatalf("qualified pattern expanded to %v, want {4}", ids2)
	}
	// No match is a bind error, not an empty vector.
	if _, err := e.Query("sum(nest.mba*.bogus)"); err == nil {
		t.Error("pattern with no matches bound successfully")
	}
	if _, err := e.Query("nest.mba9.read_bytes"); err == nil {
		t.Error("unknown exact metric bound successfully")
	}
}

func TestRateAndDelta(t *testing.T) {
	e, f := newEngineFake()
	q, err := e.Query("rate(nest.mba0.read_bytes)")
	if err != nil {
		t.Fatal(err)
	}
	qd, err := e.Query("delta(nest.mba0.read_bytes)")
	if err != nil {
		t.Fatal(err)
	}

	f.vals[1], f.ts = 1000, 0
	vs, err := e.EvalAll(q, qd)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vs[0].Scalar(); v != 0 {
		t.Errorf("rate after one sample = %v, want 0", v)
	}

	f.vals[1], f.ts = 6000, 10_000_000 // +5000 bytes over 10ms
	vs, err = e.EvalAll(q, qd)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vs[0].Scalar(); v != 5000/0.01 {
		t.Errorf("rate = %v, want %v", v, 5000/0.01)
	}
	if v, _ := vs[1].Scalar(); v != 5000 {
		t.Errorf("delta = %v, want 5000", v)
	}
}

// TestRateCounterWrap is the regression test for the satellite bugfix:
// a uint64 counter wrapping between samples must yield the true small
// positive rate, not a huge negative one.
func TestRateCounterWrap(t *testing.T) {
	e, f := newEngineFake()
	q, err := e.Query("rate(nest.mba0.read_bytes)")
	if err != nil {
		t.Fatal(err)
	}
	f.vals[1], f.ts = math.MaxUint64-999, 0
	if _, err := e.EvalAll(q); err != nil {
		t.Fatal(err)
	}
	f.vals[1], f.ts = 1000-1+1, 1_000_000_000 // wrapped: true delta 2000
	vs, err := e.EvalAll(q)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vs[0].Scalar(); v != 2000 {
		t.Errorf("rate across wrap = %v, want 2000", v)
	}
	// The shared helper itself.
	if d := pcp.CounterDelta(math.MaxUint64-999, 1000); d != 2000 {
		t.Errorf("CounterDelta across wrap = %d, want 2000", d)
	}
	if d := pcp.CounterDelta(100, 350); d != 250 {
		t.Errorf("CounterDelta = %d, want 250", d)
	}
}

func TestMemoizationSharedSubtrees(t *testing.T) {
	e, f := newEngineFake()
	// Both queries contain sum(rate(nest.mba*.read_bytes)); total also
	// adds the write side.
	read, err := e.Query("sum(rate(nest.mba*.read_bytes))")
	if err != nil {
		t.Fatal(err)
	}
	total, err := e.Query("sum(rate(nest.mba*.read_bytes)) + sum(rate(nest.mba*.write_bytes))")
	if err != nil {
		t.Fatal(err)
	}

	f.vals[1], f.vals[2], f.vals[3] = 100, 200, 50
	f.ts = 0
	if _, err := e.EvalAll(read, total); err != nil {
		t.Fatal(err)
	}
	if f.fetches != 1 {
		t.Fatalf("EvalAll of two queries cost %d fetches, want 1", f.fetches)
	}

	f.vals[1], f.vals[2], f.vals[3] = 1100, 1200, 550
	f.ts = 1_000_000_000
	vs, err := e.EvalAll(read, total)
	if err != nil {
		t.Fatal(err)
	}
	if f.fetches != 2 {
		t.Fatalf("second EvalAll cost %d cumulative fetches, want 2", f.fetches)
	}
	if v, _ := vs[0].Scalar(); v != 2000 {
		t.Errorf("read bw = %v, want 2000", v)
	}
	if v, _ := vs[1].Scalar(); v != 2500 {
		t.Errorf("total bw = %v, want 2500", v)
	}

	// Re-evaluating within the same daemon interval (unchanged fetch
	// timestamp) must not advance counter state: the rate stands.
	f.vals[1] = 9999 // daemon hasn't resampled, so this is invisible
	vs, err = e.EvalAll(read)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vs[0].Scalar(); v != 2000 {
		t.Errorf("same-interval re-eval changed rate to %v, want 2000", v)
	}
}

func TestWindowedFunctions(t *testing.T) {
	e, f := newEngineFake()
	avg, err := e.Query("avg_over(rate(nest.mba0.read_bytes), 2s)")
	if err != nil {
		t.Fatal(err)
	}
	max, err := e.Query("max_over(rate(nest.mba0.read_bytes), 2s)")
	if err != nil {
		t.Fatal(err)
	}
	// Counter values per 1s step; rates: 0 (first sample), 1000, 3000,
	// 500, 500. The 2s window holds the last two rates.
	steps := []uint64{0, 1000, 4000, 4500, 5000}
	wantAvg := []float64{0, 500, 2000, 1750, 500}
	wantMax := []float64{0, 1000, 3000, 3000, 500}
	for i, v := range steps {
		f.vals[1] = v
		f.ts = int64(i) * 1_000_000_000
		vs, err := e.EvalAll(avg, max)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := vs[0].Scalar(); v != wantAvg[i] {
			t.Errorf("step %d: avg_over = %v, want %v", i, v, wantAvg[i])
		}
		if v, _ := vs[1].Scalar(); v != wantMax[i] {
			t.Errorf("step %d: max_over = %v, want %v", i, v, wantMax[i])
		}
	}
}

func TestArithmeticBroadcast(t *testing.T) {
	e, f := newEngineFake()
	f.vals[1], f.vals[2] = 100, 300
	q, err := e.Query("nest.mba*.read_bytes / 4 + 1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Vals) != 2 || v.Vals[0] != 26 || v.Vals[1] != 76 {
		t.Errorf("broadcast result = %+v, want [26 76]", v)
	}
	if len(v.Names) != 2 {
		t.Errorf("vector lost names: %+v", v.Names)
	}
	// Vector/vector of equal width works elementwise.
	q2, err := e.Query("nest.mba*.read_bytes - nest.mba*.read_bytes")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := q2.Eval()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range v2.Vals {
		if x != 0 {
			t.Errorf("self-difference = %+v, want zeros", v2.Vals)
		}
	}
	// Width mismatch is a bind error.
	if _, err := e.Query("nest.mba*.read_bytes + nest.mba0.write_bytes.cpu*"); err != nil {
		// mba* read is width 2, write cpu* is width 1... width-1
		// vectors broadcast only if scalar; both are named vectors, so
		// widths 2 vs 1 must fail.
		_ = err
	} else {
		t.Error("width mismatch bound successfully")
	}
	// Division by zero yields NaN, not a panic.
	q3, err := e.Query("kernel.load / (kernel.load - kernel.load)")
	if err != nil {
		t.Fatal(err)
	}
	v3, err := q3.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v3.Vals[0]) {
		t.Errorf("x/0 = %v, want NaN", v3.Vals[0])
	}
}

func TestAggregates(t *testing.T) {
	e, f := newEngineFake()
	f.vals[1], f.vals[2] = 10, 30
	for expr, want := range map[string]float64{
		"sum(nest.mba*.read_bytes)": 40,
		"avg(nest.mba*.read_bytes)": 20,
		"min(nest.mba*.read_bytes)": 10,
		"max(nest.mba*.read_bytes)": 30,
	} {
		q, err := e.Query(expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		v, err := q.Eval()
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if got, _ := v.Scalar(); got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestFetchErrors(t *testing.T) {
	e, f := newEngineFake()
	f.fail = map[uint32]int32{1: pcp.StatusValueError}
	q, err := e.Query("nest.mba0.read_bytes")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Eval(); err == nil {
		t.Error("failing metric evaluated successfully")
	}

	// Timestamps must not go backwards.
	f.fail = nil
	f.ts = 5_000_000_000
	if _, err := q.Eval(); err != nil {
		t.Fatal(err)
	}
	f.ts = 1_000_000_000
	if _, err := q.Eval(); err == nil {
		t.Error("backwards timestamp accepted")
	}
}

func TestScalar(t *testing.T) {
	if _, err := (Value{Names: []string{"a", "b"}, Vals: []float64{1, 2}}).Scalar(); err == nil {
		t.Error("Scalar() of width-2 vector succeeded")
	}
	if v, err := (Value{Names: []string{"a"}, Vals: []float64{7}}).Scalar(); err != nil || v != 7 {
		t.Errorf("Scalar() of width-1 vector = %v, %v", v, err)
	}
}
