package workload

import (
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"papimc/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestValidateDefaults(t *testing.T) {
	s := &Spec{Cohorts: []CohortSpec{{Name: "c", Clients: 10, Rate: 5}}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Name != "workload" || s.Duration != 60*simtime.Second {
		t.Errorf("spec defaults: name=%q duration=%v", s.Name, s.Duration)
	}
	if s.Server.Servers != 8 || s.Server.Base != 500*simtime.Microsecond || s.Server.SizeRef != 8 {
		t.Errorf("server defaults: %+v", s.Server)
	}
	c := s.Cohorts[0]
	if c.Mix.Live != 1 || c.Size.Min != 1 || c.Size.Max != 64 {
		t.Errorf("cohort defaults: mix=%+v size=%+v", c.Mix, c.Size)
	}
	// Idempotent: validating again changes nothing.
	before := s.String()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.String() != before {
		t.Error("Validate is not idempotent")
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(mutate func(*Spec)) *Spec {
		s := richSpec()
		mutate(s)
		return s
	}
	cases := map[string]*Spec{
		"no cohorts":        {Name: "x"},
		"unnamed cohort":    mk(func(s *Spec) { s.Cohorts[0].Name = "" }),
		"duplicate cohort":  mk(func(s *Spec) { s.Cohorts[1].Name = s.Cohorts[0].Name }),
		"zero clients":      mk(func(s *Spec) { s.Cohorts[0].Clients = 0 }),
		"negative rate":     mk(func(s *Spec) { s.Cohorts[0].Rate = -4 }),
		"zero rate":         mk(func(s *Spec) { s.Cohorts[0].Rate = 0 }),
		"negative mix":      mk(func(s *Spec) { s.Cohorts[0].Mix.Archive = -1 }),
		"negative size min": mk(func(s *Spec) { s.Cohorts[0].Size.Min = -2 }),
		"max below min":     mk(func(s *Spec) { s.Cohorts[0].Size = SizeSpec{Min: 10, Max: 5} }),
		"negative alpha":    mk(func(s *Spec) { s.Cohorts[0].Size.Alpha = -1 }),
		"zero period":       mk(func(s *Spec) { s.Cohorts[0].Diurnal[0].Period = 0 }),
		"negative window":   mk(func(s *Spec) { s.Cohorts[0].Windows[0].Start = -simtime.Second }),
		"window disorder":   mk(func(s *Spec) { s.Cohorts[0].Windows[1].Start = 0 }),
		"negative servers":  mk(func(s *Spec) { s.Server.Servers = -1 }),
		"jitter too big":    mk(func(s *Spec) { s.Server.Jitter = 1 }),
	}
	for name, s := range cases {
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: %v does not wrap ErrSpec", name, err)
		}
	}
}

// TestLoadSpecGolden parses the checked-in example spec and diffs its
// canonical normalized form against the golden file. Refresh with
// go test ./internal/workload -run LoadSpecGolden -update
func TestLoadSpecGolden(t *testing.T) {
	s, err := LoadSpec(filepath.Join("testdata", "diurnal.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diurnal.golden", s.String())
}

// checkGolden diffs got against testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestExampleSpecs loads every committed example spec, and holds the
// capacity example to its closed form: one 1 ms server over fixed-size
// requests serves exactly 1000 req/s, so the default sweep first
// saturates at mult 2 (1200 req/s offered) by the ratio rule, and
// throughput at and past the knee is the capacity. The rendered report
// is pinned by testdata/capacity.golden (refresh with -update).
func TestExampleSpecs(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "workload-specs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, p := range paths {
		if _, err := LoadSpec(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	spec, err := LoadSpec(filepath.Join("..", "..", "examples", "workload-specs", "capacity.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Capacity(spec, CapacityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Knee != 3 || rep.Points[3].Mult != 2 || !strings.HasPrefix(rep.KneeReason, "throughput-to-arrival ratio") {
		t.Errorf("knee at index %d (%q), want mult 2 by the ratio rule:\n%s", rep.Knee, rep.KneeReason, rep.Render())
	}
	for _, i := range []int{3, 4} {
		if a := rep.Points[i].Achieved; math.Abs(a-1000) > 10 {
			t.Errorf("mult %g achieved %.1f/s, want 1000/s within 1%%", rep.Points[i].Mult, a)
		}
	}
	checkGolden(t, "capacity.golden", rep.Render())
}

// parseSpecErrorCases are specs ParseSpec must reject; FuzzParseSpec
// seeds its corpus with them.
var parseSpecErrorCases = map[string]string{
	"unknown key":        `{"name": "x", "bogus": 1, "cohorts": [{"name": "c", "clients": 1, "rate": 1}]}`,
	"unknown cohort key": `{"cohorts": [{"name": "c", "clients": 1, "rate": 1, "color": "red"}]}`,
	"unknown mix key":    `{"cohorts": [{"name": "c", "clients": 1, "rate": 1, "mix": {"livee": 1}}]}`,
	"bad duration":       `{"duration": "soon", "cohorts": [{"name": "c", "clients": 1, "rate": 1}]}`,
	"bare duration":      `{"duration": 90, "cohorts": [{"name": "c", "clients": 1, "rate": 1}]}`,
	"bad number":         `{"cohorts": [{"name": "c", "clients": "few", "rate": 1}]}`,
	"non-integer":        `{"cohorts": [{"name": "c", "clients": 1.5, "rate": 1}]}`,
	"negative seed":      `{"seed": -1, "cohorts": [{"name": "c", "clients": 1, "rate": 1}]}`,
	"bad json":           `{not json`,
	"empty":              ``,
	"not an object":      `[{"name": "c", "clients": 1, "rate": 1}]`,
	"trailing data":      `{"cohorts": [{"name": "c", "clients": 1, "rate": 1}]} {}`,
	"cohorts not list":   `{"cohorts": 3}`,
	"invalid spec":       `{"cohorts": [{"name": "c", "clients": 0, "rate": 1}]}`,
}

func TestParseSpecErrors(t *testing.T) {
	for name, src := range parseSpecErrorCases {
		_, err := ParseSpec([]byte(src))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: %v does not wrap ErrSpec", name, err)
		}
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestModulationEnvelope(t *testing.T) {
	c := &richSpec().Cohorts[0]
	env := c.envelope()
	for _, tm := range []simtime.Time{0, 1e9, 5e9, 9e9, 11e9, 19e9} {
		m := c.modulation(tm)
		if m < 0 || m > env+1e-9 {
			t.Errorf("modulation(%v) = %g outside [0, envelope=%g]", tm, m, env)
		}
	}
	if !strings.Contains(richSpec().String(), "envelope=") {
		t.Error("String omits the envelope")
	}
}
