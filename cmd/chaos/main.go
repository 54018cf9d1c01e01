// Command chaos runs the seeded fault-injection sweep against the full
// serving stack (daemon → pmproxy → client → archive recorder) and
// checks the chaos package's safety contract on every operation.
//
// A run is a pure function of its flags: the same seed reproduces the
// byte-identical report at any -j. On a violation the driver prints the
// offending trials and one repro command line per failure, then exits 1.
//
// With -cluster the sweep runs against federated metric trees instead:
// each trial assembles its own hierarchical scatter-gather cluster,
// kills and stalls nodes mid-stream, and checks the partial-result
// contract — every query answers, the missing nodes are named exactly,
// and every surviving value certifies.
//
// With -overload the sweep runs the multi-tenant QoS suite instead:
// three tenants offer twice the modelled upstream capacity through the
// proxy's admission layer, and each trial checks the overload contract
// (gold p99 within 2x of its uncontended baseline under a protecting
// policy, exact per-tenant conservation, typed sheds, stale-served
// degradation, and a collapsing control arm).
//
//	go run ./cmd/chaos -profile mixed -trials 16
//	go run ./cmd/chaos -seed 0xc4a05 -trials 4 -trial 1 -ops 30 -corrupt 3000 -chunk 64
//	go run ./cmd/chaos -cluster -nodes 64 -fanout 4 -kill 3 -trials 8
//	go run ./cmd/chaos -overload -policy token-bucket -trials 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"papimc/internal/chaos"
	"papimc/internal/faultconn"
	"papimc/internal/pmproxy"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 0xC4A05, "base seed (trial i derives its own substream)")
		trials     = flag.Int("trials", 8, "number of independent trials")
		ops        = flag.Int("ops", 40, "operations per trial")
		workers    = flag.Int("j", 0, "parallel trial workers (0 = GOMAXPROCS)")
		profile    = flag.String("profile", "", "named fault profile: "+strings.Join(chaos.Names(chaos.Profiles), ", "))
		trial      = flag.Int("trial", -1, "replay only this trial index (-1 = all)")
		breakStale = flag.Bool("break-stale", false, "simulate the stale re-stamping bug (the suite must fail)")
		timeout    = flag.Duration("timeout", 0, "per round-trip deadline (0 = 2s)")

		refuse  = flag.Float64("refuse", 0, "connection refusal probability")
		reset   = flag.Int64("reset", 0, "mean bytes between injected resets (0 = off)")
		stall   = flag.Int64("stall", 0, "mean bytes between silent stalls (0 = off)")
		corrupt = flag.Int64("corrupt", 0, "mean bytes between single-bit flips (0 = off)")
		latency = flag.Int64("latency", 0, "mean bytes between inserted delays (0 = off)")
		chunk   = flag.Int("chunk", 0, "max bytes per read/write (0 = unlimited)")

		overloadMode = flag.Bool("overload", false, "sweep the multi-tenant overload QoS suite instead of the fault suite")
		policy       = flag.String("policy", "token-bucket", "[overload] admission policy: "+strings.Join(pmproxy.PolicyNames(), ", "))

		clusterMode = flag.Bool("cluster", false, "sweep federated metric trees instead of the serving stack")
		nodes       = flag.Int("nodes", 64, "[cluster] node count per tree")
		fanout      = flag.Int("fanout", 4, "[cluster] federator fan-out")
		queries     = flag.Int("queries", 4, "[cluster] scatter-gather queries per trial")
		kill        = flag.Int("kill", 3, "[cluster] nodes killed per trial")
		stalled     = flag.Int("stalled", 0, "[cluster] nodes stalled per trial")
		flap        = flag.Bool("flap", false, "[cluster] re-draw the victims before every query")
	)
	flag.Parse()

	start := time.Now()
	switch {
	case *overloadMode:
		o := chaos.OverloadOptions{
			Seed:    *seed,
			Trials:  *trials,
			Policy:  *policy,
			Workers: *workers,
			Trial:   *trial,
		}
		rep, err := chaos.RunOverload(o)
		finish(rep, err, start, o.Seed, "overload", func(i int) string { return chaos.OverloadReproLine(o, i) })

	case *clusterMode:
		prof := chaos.ClusterProfile{Kill: *kill, Stall: *stalled, Flap: *flap}
		if *profile != "" {
			prof = lookup(chaos.ClusterProfiles, "cluster profile", *profile)
		}
		o := chaos.ClusterOptions{
			Seed:    *seed,
			Trials:  *trials,
			Queries: *queries,
			Nodes:   *nodes,
			FanOut:  *fanout,
			Workers: *workers,
			Profile: prof,
			Trial:   *trial,
		}
		rep, err := chaos.RunCluster(o)
		finish(rep, err, start, o.Seed, "partial-result", func(i int) string { return chaos.ClusterReproLine(o, i) })

	default:
		sched := faultconn.Schedule{
			RefuseProb:   *refuse,
			ResetEvery:   *reset,
			StallEvery:   *stall,
			CorruptEvery: *corrupt,
			LatencyEvery: *latency,
			MaxChunk:     *chunk,
		}
		if *profile != "" {
			sched = lookup(chaos.Profiles, "profile", *profile)
		}
		o := chaos.Options{
			Seed:       *seed,
			Trials:     *trials,
			Ops:        *ops,
			Workers:    *workers,
			Schedule:   sched,
			Timeout:    *timeout,
			BreakStale: *breakStale,
			Trial:      *trial,
		}
		rep, err := chaos.Run(o)
		finish(rep, err, start, o.Seed, "serving", func(i int) string { return chaos.ReproLine(o, i) })
	}
}

// lookup returns the named entry of a profile table, or exits naming
// the table's entries.
func lookup[P any](table map[string]P, what, name string) P {
	p, ok := table[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "chaos: unknown %s %q (have: %s)\n", what, name, strings.Join(chaos.Names(table), ", "))
		os.Exit(2)
	}
	return p
}

// report is what finish needs of any suite's chaos.Report.
type report interface {
	String() string
	Outcomes() []chaos.Outcome
}

// finish prints a suite's report and verdict and exits with its status:
// 2 for a harness error, 1 with one repro line per failing trial, 0
// when every trial held the named contract. stdout carries only the
// deterministic report (byte-identical for a fixed seed at any -j);
// timing goes to stderr.
func finish(rep report, err error, start time.Time, seed uint64, contract string, repro func(trial int) string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(rep)
	fmt.Fprintf(os.Stderr, "elapsed %.2fs\n", time.Since(start).Seconds())
	outs := rep.Outcomes()
	bad := 0
	for _, o := range outs {
		if len(o.Violations) > 0 {
			bad++
			fmt.Printf("repro: %s\n", repro(o.Index))
		}
	}
	if bad > 0 {
		fmt.Printf("FAIL: %d of %d trials violated the %s contract\n", bad, len(outs), contract)
		os.Exit(1)
	}
	fmt.Printf("ok: %d trials, seed %#x\n", len(outs), seed)
}
