package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// environment is recorded with every result file: a figure means
// nothing without the box it was taken on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workerCount(),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository leaves the commit unknown.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}

// resultSet is one result file: every workload's end-to-end run and,
// when the traced pass ran, its per-layer run.
type resultSet struct {
	Env      environment `json:"env"`
	Seed     uint64      `json:"seed"`
	Seconds  int         `json:"seconds"`
	EndToEnd []*result   `json:"end_to_end,omitempty"`
	PerLayer []*result   `json:"per_layer,omitempty"`
}

// runAll runs every workload, each pass in a fresh child process so
// that peak RSS, CPU time and the collector's state are the workload's
// own, prints every metric and writes the result file.
func runAll(w io.Writer, path string, seed uint64, seconds, trace int) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Env: currentEnvironment(), Seed: seed, Seconds: seconds}
	fmt.Fprintf(w, "nproc %d, GOMAXPROCS %d, %d closed-loop workers, %s, kernel %s, commit %s, seed %d\n",
		set.Env.NProc, set.Env.GOMAXPROCS, set.Env.Workers, set.Env.GoVersion, set.Env.Kernel, set.Env.Commit, seed)
	failed := 0
	for _, name := range workloadNames {
		for pass := 0; pass <= 1; pass++ {
			if trace >= 0 && trace != pass {
				continue
			}
			res, err := runChild(self, name, seed, seconds, pass)
			if err != nil {
				return nil, err
			}
			printResult(w, res)
			if !res.Correct {
				failed++
				fmt.Fprintf(w, "  FAILED: %s\n", res.Error)
			}
			if pass == 0 {
				set.EndToEnd = append(set.EndToEnd, res)
			} else {
				set.PerLayer = append(set.PerLayer, res)
			}
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "results written to %s\n", path)
	if failed > 0 {
		return set, fmt.Errorf("%d runs had failed ops", failed)
	}
	return set, nil
}

// runChild re-executes this program for one workload and one pass and
// reads the result off its detail line.
func runChild(self, name string, seed uint64, seconds, trace int) (*result, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // a run with failed ops exits non-zero but still reports
	for _, line := range bytes.Split(out, []byte("\n")) {
		if detail, ok := bytes.CutPrefix(line, []byte(detailPrefix)); ok {
			res := new(result)
			if err := json.Unmarshal(detail, res); err != nil {
				return nil, fmt.Errorf("%s: bad result line: %w", name, err)
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("%s: child printed no result: %v", name, runErr)
}

// runRepeat produces n full result sets of this commit and compares
// each later one with the first: the repeatability check.
func runRepeat(w io.Writer, n int, seed uint64, seconds, trace int) error {
	var paths []string
	for i := 1; i <= n; i++ {
		path := filepath.Join(outDir, fmt.Sprintf("result-%d.json", i))
		fmt.Fprintf(w, "== set %d of %d ==\n", i, n)
		if _, err := runAll(w, path, seed, seconds, trace); err != nil {
			return err
		}
		paths = append(paths, path)
	}
	var firstErr error
	for _, path := range paths[1:] {
		if err := compareFiles(w, benchmarkPath, paths[0], path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric: both
// values, how much worse b is than a, the bound BENCHMARK.json fixes
// and the spread across windows. A metric whose spread exceeds its
// bound cannot be resolved at that bound and is marked so; any row
// that is worse by more than its bound makes the comparison fail.
func compareFiles(w io.Writer, boundsPath, pathA, pathB string) error {
	var bm benchmarkFile
	if err := readJSON(boundsPath, &bm); err != nil {
		return fmt.Errorf("compare needs the bounds (run from the repository root): %w", err)
	}
	var a, b resultSet
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Env != b.Env || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: the two sets differ in environment or run length:\n  a: %+v %ds\n  b: %+v %ds\n",
			a.Env, a.Seconds, b.Env, b.Seconds)
	}
	find := func(rs []*result, workload, name string) (metric, bool) {
		for _, r := range rs {
			if r.Workload != workload {
				continue
			}
			for _, m := range r.Metrics {
				if m.Name == name {
					return m, true
				}
			}
		}
		return metric{}, false
	}

	fmt.Fprintf(w, "comparing %s (a) with %s (b)\n", pathA, pathB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tworse by\tbound\twindow iqr\t")
	out := 0
	for _, name := range workloadNames {
		for _, def := range bm.EndToEnd {
			ma, okA := find(a.EndToEnd, name, def.Name)
			mb, okB := find(b.EndToEnd, name, def.Name)
			if !okA || !okB {
				return fmt.Errorf("%s %s is missing from a result set", name, def.Name)
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if def.Better == "higher" {
				worse = -worse
			}
			spread := max(ma.IQR/ma.Value, mb.IQR/mb.Value)
			verdict := ""
			switch {
			case worse > def.Bound:
				verdict = "OUT OF BOUND"
				out++
			case spread > def.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				name, def.Name, ma.Value, mb.Value, def.Unit, 100*worse, 100*def.Bound, 100*spread, verdict)
		}
	}
	tw.Flush()
	if out > 0 {
		return fmt.Errorf("%d metrics are worse in %s than in %s by more than their bound", out, pathB, pathA)
	}
	return nil
}
