// Command pmcap is the capacity analyzer: it expands a declarative
// workload spec (see internal/workload), sweeps its rate multiplier
// through the virtual-time engine, and reports the knee — where the tier
// stops absorbing offered load or the p99 cliffs.
//
// Everything runs in virtual time, so a sweep over millions of simulated
// clients finishes in seconds of wall time and the report is
// byte-identical across runs and across -j worker counts: CI diffs two
// invocations to hold the engine to that.
//
// Usage:
//
//	pmcap -spec FILE [-mults 0.25,0.5,1,2,4] [-j N] [-json]
//
// The knee is the first point whose throughput-to-arrival ratio falls
// below 0.99 or whose p99 exceeds 10× the lowest point's.
//
// Example:
//
//	pmcap -spec examples/workload-specs/diurnal.json -mults 0.5,1,2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"papimc/internal/workload"
)

func main() {
	specPath := flag.String("spec", "", "workload spec file (JSON), required")
	multsFlag := flag.String("mults", "", "comma-separated rate multipliers to sweep (default 0.25,0.5,1,2,4)")
	workers := flag.Int("j", 0, "parallel sweep workers (0 = GOMAXPROCS; output is identical at any value)")
	asJSON := flag.Bool("json", false, "emit the report as JSON instead of a table")
	flag.Parse()

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "pmcap: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	spec, err := workload.LoadSpec(*specPath)
	if err != nil {
		fail(err)
	}
	mults, err := parseMults(*multsFlag)
	if err != nil {
		fail(err)
	}
	rep, err := workload.Capacity(spec, workload.CapacityOptions{Mults: mults, Workers: *workers})
	if err != nil {
		fail(err)
	}
	if *asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Print(rep.Render())
}

func parseMults(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad multiplier %q in -mults", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pmcap:", err)
	os.Exit(1)
}
