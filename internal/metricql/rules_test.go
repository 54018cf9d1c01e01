package metricql

import (
	"testing"

	"papimc/internal/simtime"
)

func TestRulesetValidation(t *testing.T) {
	e, _ := newEngineFake()
	rs := NewRuleset(e, func(Firing) {})
	if err := rs.Add(Rule{Name: "bad-op", Expr: "kernel.load", Op: "==", Threshold: 1}); err == nil {
		t.Error("bad comparison accepted")
	}
	if err := rs.Add(Rule{Name: "bad-expr", Expr: "rate(", Op: ">", Threshold: 1}); err == nil {
		t.Error("unparsable expression accepted")
	}
	if err := rs.Add(Rule{Name: "vector", Expr: "nest.mba*.read_bytes", Op: ">", Threshold: 1}); err == nil {
		t.Error("vector-valued rule accepted")
	}
	if err := rs.Add(Rule{Name: "ok", Expr: "sum(nest.mba*.read_bytes)", Op: ">", Threshold: 1}); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
}

func TestRulesetHoldAndHysteresis(t *testing.T) {
	e, f := newEngineFake()
	var fired []Firing
	rs := NewRuleset(e, func(fi Firing) { fired = append(fired, fi) })
	err := rs.Add(Rule{
		Name:      "high-read-bw",
		Expr:      "rate(nest.mba0.read_bytes)",
		Op:        ">",
		Threshold: 1000,
		Hold:      2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Per-step rates: 0 (first sample), 2000, 2000, 2000, 100, 2000, 2000.
	incs := []uint64{0, 2000, 2000, 2000, 100, 2000, 2000}
	var acc uint64
	for i, inc := range incs {
		acc += inc
		f.vals[1] = acc
		f.ts = int64(i) * 1_000_000_000
		if err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Breach run starts at step 1; Hold=2 delays the firing to step 2.
	// Steps 3 still breaches but hysteresis holds (no clear sample yet).
	// Step 4 clears and re-arms; steps 5–6 breach and fire at step 6.
	if len(fired) != 2 {
		t.Fatalf("fired %d times (%v), want 2", len(fired), fired)
	}
	if fired[0].Timestamp != 2_000_000_000 {
		t.Errorf("first firing at ts %d, want 2e9", fired[0].Timestamp)
	}
	if fired[0].Value != 2000 {
		t.Errorf("first firing value %v, want 2000", fired[0].Value)
	}
	if fired[1].Timestamp != 6_000_000_000 {
		t.Errorf("second firing at ts %d, want 6e9", fired[1].Timestamp)
	}
}

func TestRulesetHoldoff(t *testing.T) {
	e, f := newEngineFake()
	var fired []Firing
	rs := NewRuleset(e, func(fi Firing) { fired = append(fired, fi) })
	err := rs.Add(Rule{
		Name:      "load",
		Expr:      "kernel.load",
		Op:        ">=",
		Threshold: 5,
		Holdoff:   simtime.Duration(3_500_000_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Alternate breach/clear every second: without holdoff the rule
	// would fire at t=0,2,4,6; the 3.5s holdoff suppresses t=2 (and the
	// hysteresis is satisfied by the clear samples in between).
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			f.vals[5] = 10
		} else {
			f.vals[5] = 1
		}
		f.ts = int64(i) * 1_000_000_000
		if err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d times (%v), want 2", len(fired), fired)
	}
	if fired[0].Timestamp != 0 || fired[1].Timestamp != 4_000_000_000 {
		t.Errorf("firings at %d, %d; want 0 and 4e9", fired[0].Timestamp, fired[1].Timestamp)
	}
}

func TestRulesetSameIntervalNoop(t *testing.T) {
	e, f := newEngineFake()
	var fired int
	rs := NewRuleset(e, func(Firing) { fired++ })
	if err := rs.Add(Rule{Name: "load", Expr: "kernel.load", Op: ">", Threshold: 5}); err != nil {
		t.Fatal(err)
	}
	f.vals[5] = 10
	f.ts = 1_000_000_000
	for i := 0; i < 5; i++ {
		if err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 1 {
		t.Errorf("five same-interval steps fired %d times, want 1", fired)
	}
}

// TestRulesetStepAllocs: a warm rules step allocates only what the
// source's fetch does, and the fake's FetchInto spends nothing. The
// ruleset keeps its query slice instead of building one a step.
func TestRulesetStepAllocs(t *testing.T) {
	e, f := newEngineFake()
	fired := 0
	rs := NewRuleset(e, func(Firing) { fired++ })
	for _, r := range []Rule{
		{Name: "read-bw", Expr: "sum(rate(nest.mba*.read_bytes))", Op: ">", Threshold: 1000},
		{Name: "load", Expr: "kernel.load", Op: ">=", Threshold: 10},
	} {
		if err := rs.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.ts += 1_000_000_000
		f.vals[1] += 2000
		if err := rs.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || fired != 2 {
		t.Errorf("a warm rules step allocates %v times and the rules fired %d times, want 0 and 2", allocs, fired)
	}
}
