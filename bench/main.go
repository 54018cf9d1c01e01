// Command bench is the repository's one benchmark: four workloads over
// the measurement plane, each assembled in-process over loopback TCP,
// driven closed-loop, verified reply by reply, and reported by named
// metric. BENCHMARK.json at the repository root describes it; README.md
// beside this file says why each workload and metric exists.
//
//	go run ./bench -seed 1                      every workload, both passes
//	go run ./bench -workload papi_read -seed 1  one workload, end-to-end metrics
//	go run ./bench -workload papi_read -trace 1 one workload, per-layer metrics
//	go run ./bench -repeat 2                    two full sets, compared
//	go run ./bench -compare a.json b.json       compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// outDir holds what a run leaves behind (traces, result files). It is
// relative to the working directory, which is the repository root.
var outDir = filepath.Join("bench", "out")

// benchmarkPath is where the bounds are fixed.
const benchmarkPath = "BENCHMARK.json"

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload in this process: "+fmt.Sprint(workloadNames))
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per run (ten windows of a tenth each)")
	trace := fs.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics from a run with the traced pass (default: 0 for one workload, both for all)")
	repeat := fs.Int("repeat", 0, "produce this many full result sets and compare each with the first")
	compare := fs.String("compare", "", "compare this result file with the one named as the next argument")
	fs.Parse(os.Args[1:])
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}

	var err error
	switch {
	case *compare != "":
		if fs.NArg() != 1 {
			err = fmt.Errorf("-compare a.json needs b.json as its one argument")
		} else {
			err = compareFiles(os.Stdout, benchmarkPath, *compare, fs.Arg(0))
		}
	case *workload != "":
		err = runOne(os.Stdout, *workload, *seed, *seconds, *trace == 1)
	case *repeat > 0:
		err = runRepeat(os.Stdout, *repeat, *seed, *seconds, *trace)
	default:
		_, err = runAll(os.Stdout, filepath.Join(outDir, "result.json"), *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverLine is the last line of a single-workload run's standard
// output, in the shape the benchmark contract fixes.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPrefix marks the line that carries the full result (spread and
// sample counts included) for the parent process of a child run.
const detailPrefix = "#result "

// runOne runs one workload in this process and prints every metric by
// name with its unit, then the detail line, then the contract's line.
func runOne(w io.Writer, name string, seed uint64, seconds int, trace bool) error {
	res, err := runWorkload(name, seed, fullSizes(seconds, trace), trace, outDir)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printResult(w, res)
	detail, err := json.Marshal(res)
	if err != nil {
		return err
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]driverValue)}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n%s\n", detailPrefix, detail, last)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed: %s", name, res.Failed, res.Attempted, res.Error)
	}
	return nil
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed, at least %d ops per window\n",
		res.Workload, res.Attempted, res.Failed, res.Samples)
	if res.TailQ != 0 {
		fmt.Fprintf(w, "  under 1000 ops per window: read as one window, op_p99_us is p%.1f, the highest with ten samples beyond it\n", 100*res.TailQ)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range res.Metrics {
		if m.N > 1 {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\tiqr %.3g over %d\n", m.Name, m.Value, m.Unit, m.IQR, m.N)
		} else {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", m.Name, m.Value, m.Unit)
		}
	}
	tw.Flush()
}
