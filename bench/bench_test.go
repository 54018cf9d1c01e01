package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSizes shrinks every workload so the four of them, both passes,
// fit in a few seconds: 40 ms windows, a 4-node tree, a 20 k-row
// archive, 10-step panels.
var testSizes = sizes{
	windows:      10,
	window:       raceSlowdown * 40 * time.Millisecond,
	warmup:       raceSlowdown * 40 * time.Millisecond,
	traced:       raceSlowdown * 100 * time.Millisecond,
	paced:        raceSlowdown * 50 * time.Millisecond,
	ladderCalls:  64,
	setupMin:     1,
	clusterNodes: 4,
	archiveRows:  20_000,
	panelSteps:   10,
}

func TestPlanFollowsSeed(t *testing.T) {
	if !bytes.Equal(newPlan(1).bytes(), newPlan(1).bytes()) {
		t.Error("the same seed gave two different input plans")
	}
	if bytes.Equal(newPlan(1).bytes(), newPlan(2).bytes()) {
		t.Error("seeds 1 and 2 gave the same input plan")
	}
}

// benchmarkSchema is the part of BENCHMARK.json the program must match.
type benchmarkSchema struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSchemaMatchesBenchmarkJSON runs every workload, shrunken, in both
// passes and holds what it emits against BENCHMARK.json: every named
// metric exactly once, finite, with its unit, and nothing unnamed.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	var bm benchmarkSchema
	if err := readJSON(filepath.Join("..", benchmarkPath), &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := bm.EndToEnd
			if trace {
				want = bm.PerLayer
			}
			res, err := runWorkload(name, 1, testSizes, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %s", name, trace, res.Failed, res.Attempted, res.Error)
			}
			got := make(map[string]metric)
			for _, m := range res.Metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s trace=%v: %s emitted twice", name, trace, m.Name)
				}
				got[m.Name] = m
			}
			for _, def := range want {
				m, ok := got[def.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s is in BENCHMARK.json but was not emitted", name, trace, def.Name)
				case m.Unit != def.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", name, trace, def.Name, m.Unit, def.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, def.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, def.Name, m.Value)
				}
				delete(got, def.Name)
			}
			for extra := range got {
				t.Errorf("%s trace=%v: %s emitted but not in BENCHMARK.json", name, trace, extra)
			}
		}
	}
}

// TestCompareVerdicts feeds the comparison two hand-made result sets:
// a metric worse by more than its bound fails it, and a metric whose
// window spread exceeds its bound is reported as unresolved.
func TestCompareVerdicts(t *testing.T) {
	var bm benchmarkFile
	if err := readJSON(filepath.Join("..", benchmarkPath), &bm); err != nil {
		t.Fatal(err)
	}
	set := func(scale map[string]float64, iqr map[string]float64) string {
		rs := resultSet{Seconds: 20}
		for _, name := range workloadNames {
			r := &result{Workload: name, Correct: true, Attempted: 1}
			for _, def := range bm.EndToEnd {
				s := 1.0
				if v, ok := scale[def.Name]; ok {
					s = v
				}
				r.Metrics = append(r.Metrics, metric{Name: def.Name, Unit: def.Unit, Value: 100 * s, IQR: 100 * iqr[def.Name], N: 10})
			}
			rs.EndToEnd = append(rs.EndToEnd, r)
		}
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set(nil, nil)
	bounds := filepath.Join("..", benchmarkPath)

	var out bytes.Buffer
	if err := compareFiles(&out, bounds, base, set(nil, nil)); err != nil {
		t.Errorf("identical sets: %v\n%s", err, &out)
	}
	out.Reset()
	if err := compareFiles(&out, bounds, base, set(map[string]float64{"op_p50_us": 1.5}, nil)); err == nil ||
		strings.Count(out.String(), "OUT OF BOUND") != len(workloadNames) {
		t.Errorf("op_p50_us half as slow again: err=%v\n%s", err, &out)
	}
	out.Reset()
	if err := compareFiles(&out, bounds, base, set(map[string]float64{"ops_per_s": 0.5}, nil)); err == nil {
		t.Errorf("ops_per_s halved (higher is better) passed:\n%s", &out)
	}
	out.Reset()
	if err := compareFiles(&out, bounds, base, set(nil, map[string]float64{"op_p99_us": 0.9})); err != nil ||
		strings.Count(out.String(), "unresolved") != len(workloadNames) {
		t.Errorf("op_p99_us with a 90%% window spread: err=%v\n%s", err, &out)
	}
}
