// Command figures reproduces the paper's tables and figures, and runs
// the two checks behind them.
//
// Usage:
//
//	figures [-out DIR] [-quick] [-seed N] [-j N] [experiment ...]
//
// An experiment is a table or figure id (tableI, fig2a … fig12,
// tableII), verify (run the distributed 3D FFT of Section IV, N=16 on a
// 2x4 process grid, and check it against the local transform) or qmc
// (the QMCPACK-analogue example problem profiled in Fig. 12: VMC
// without drift, VMC with drift, then DMC on the 3D harmonic
// oscillator, with each stage's energy). Named experiments print to
// stdout, or with -out their figures are written into DIR as a text
// table (plus an ASCII chart where the original is a plot) and a CSV.
// With none named, every table and figure is written into DIR (default
// out).
//
// -j parallelizes the sweeps inside each figure; output is byte-identical
// for every worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/cmplx"
	"os"
	"path/filepath"

	"papimc/internal/fft"
	"papimc/internal/figures"
	"papimc/internal/mpi"
	"papimc/internal/qmc"
	"papimc/internal/report"
	"papimc/internal/xrand"
)

func main() {
	out := flag.String("out", "", "write figures into this directory instead of stdout (default out when no experiment is named)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	seed := flag.Uint64("seed", 0, "noise seed (0 = default)")
	workers := flag.Int("j", 0, "parallel sweep workers (0 = one per CPU, 1 = serial)")
	flag.Parse()

	opts := figures.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	dir, ids := *out, flag.Args()
	if len(ids) == 0 {
		for _, g := range figures.All() {
			ids = append(ids, g.ID)
		}
		if dir == "" {
			dir = "out"
		}
	}
	// Resolve every name before running anything, so a typo costs no
	// sweep time.
	var runs []func() error
	for _, id := range ids {
		switch id {
		case "verify":
			runs = append(runs, runVerify)
		case "qmc":
			runs = append(runs, runQMC)
		default:
			g, err := figures.ByID(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v, or verify or qmc\n", err)
				os.Exit(2)
			}
			runs = append(runs, func() error { return emit(g, opts, dir) })
		}
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for i, run := range runs {
		if dir == "" && i > 0 {
			fmt.Println()
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", ids[i], err)
			os.Exit(1)
		}
	}
}

// emit regenerates one figure and prints it, or writes it into dir.
func emit(g figures.Generator, opts figures.Options, dir string) error {
	res, err := g.Gen(opts)
	if err != nil {
		return err
	}
	if dir == "" {
		return writeText(os.Stdout, res)
	}
	if err := writeResult(dir, res); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s)\n", res.ID, res.Title)
	return nil
}

// writeText writes a figure's title, table and (for plots) chart.
func writeText(w io.Writer, res *figures.Result) error {
	fmt.Fprintf(w, "%s\n\n", res.Title)
	if err := res.Table.Write(w); err != nil {
		return err
	}
	if res.Chart == nil {
		return nil
	}
	fmt.Fprintln(w)
	return res.Chart.Write(w)
}

// writeResult writes dir/ID.txt (writeText's output) and dir/ID.csv.
func writeResult(dir string, res *figures.Result) error {
	txt, err := os.Create(filepath.Join(dir, res.ID+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := writeText(txt, res); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	return res.Table.WriteCSV(csv)
}

// runQMC runs the QMC example problem and prints each stage's energy
// beside the analytic values.
func runQMC() error {
	const alpha, steps = 0.8, 2000
	cfg := qmc.Config{Alpha: alpha, Walkers: 512, StepSize: 0.3, Seed: 42}
	v1, err := qmc.VMCNoDrift(cfg, steps)
	if err != nil {
		return err
	}
	v2, err := qmc.VMCDrift(cfg, steps)
	if err != nil {
		return err
	}
	dmcCfg := cfg
	dmcCfg.StepSize = 0.02
	d, err := qmc.DMC(dmcCfg, steps)
	if err != nil {
		return err
	}
	t := &report.Table{Headers: []string{"stage", "energy", "variance", "acceptance", "walkers"}}
	t.AddRow(string(qmc.PhaseVMCNoDrift), v1.Energy, v1.Variance, v1.Acceptance, v1.Walkers)
	t.AddRow(string(qmc.PhaseVMCDrift), v2.Energy, v2.Variance, v2.Acceptance, v2.Walkers)
	t.AddRow(string(qmc.PhaseDMC), d.Energy, d.Variance, d.Acceptance, d.Walkers)
	fmt.Printf("QMC example problem (3D harmonic oscillator, alpha=%.2f):\n", alpha)
	fmt.Printf("  analytic VMC energy %.4f, exact ground state %.1f\n\n", qmc.ExactVMCEnergy(alpha), qmc.GroundStateEnergy)
	return t.Write(os.Stdout)
}

// runVerify runs the distributed 3D FFT of size n on an r x c process
// grid and checks every rank's output against the local transform.
func runVerify() error {
	const n, r, c = 16, 2, 4
	g := fft.Grid{N: n, R: r, C: c}
	if err := g.Validate(); err != nil {
		return err
	}
	rng := xrand.New(1)
	global := make([]complex128, n*n*n)
	for i := range global {
		global[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	want := append([]complex128(nil), global...)
	fft.FFT3D(want, n)

	comm := mpi.New(g.Ranks(), nil, nil, nil)
	results := make([][]complex128, g.Ranks())
	comm.Run(func(rk *mpi.Rank) {
		i, j := g.RankCoords(rk.ID())
		results[rk.ID()] = fft.Distributed3D(g, rk, fft.LocalSlab(g, global, i, j))
	})
	worst := 0.0
	for id, out := range results {
		i, j := g.RankCoords(id)
		for off, v := range out {
			x, y, z := fft.OutputIndex(g, i, j, off)
			if d := cmplx.Abs(v - want[(x*n+y)*n+z]); d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("distributed 3D-FFT, N=%d on a %dx%d grid (%d ranks): max |err| vs local transform = %.3g\n",
		n, r, c, g.Ranks(), worst)
	if worst > 1e-8 {
		return fmt.Errorf("verification FAILED (max error %g)", worst)
	}
	fmt.Println("verification PASSED")
	return nil
}
