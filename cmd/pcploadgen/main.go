// Command pcploadgen drives fetch load against the PCP serving tier and
// reports a concurrency sweep: throughput plus p50/p95/p99/p99.9
// latency at each worker count, in open- or closed-loop discipline,
// measured in wall-clock round trips.
//
// By default it builds a self-contained testbed (a simulated node with a
// live PMCD daemon and a pmproxy in front of it) and sweeps both tiers
// over real TCP connections. Point -target at an address to load an
// externally started daemon or proxy instead.
//
// With -spec it instead runs a declarative workload model (see
// internal/workload): cohorts, rate curves, diurnal patterns and
// heavy-tailed request mixes expand into a deterministic request
// stream. By default the stream runs through the queueing model in
// virtual time (millions of clients, seconds of wall clock); the run can
// be recorded to a compact trace with -record and replayed bit-exact
// with -replay. With -live the same stream (or a replayed trace's)
// becomes the open-loop arrival schedule of a wall-clock run against a
// real tier: -workers connections, each request as wide as its size up
// to -pmids, latency measured from the scheduled arrival, -duration
// cutting the spec's horizon short.
//
// With -tenant N every connection identifies itself in-band as that
// tenant (protocol Version3), so a QoS-enabled pmproxy applies the
// tenant's quota; with -tenants "gold=1,guest=2" one concurrent stream
// runs per tenant and the report breaks out each tenant's ops, errors,
// sheds and latency quantiles — the two-tenant overload experiment in
// one command.
//
// Usage:
//
//	pcploadgen [-target both|daemon|proxy|ADDR] [-mode closed|open]
//	           [-sweep 1,2,4,8] [-ops 200] [-rate 50000]
//	           [-pipeline N] [-batch B] [-tenant N | -tenants name=id,...]
//	pcploadgen -spec FILE [-mult M] [-record FILE | -replay FILE]
//	pcploadgen -spec FILE -live [-mult M | -replay FILE] [-target ADDR]
//	           [-workers N] [-duration D]
//
// Example open-loop sweep and workload run:
//
//	pcploadgen -target daemon -mode open -rate 20000 -sweep 1,4,16
//	pcploadgen -spec examples/workload-specs/diurnal.json -mult 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"papimc/internal/arch"
	"papimc/internal/loadgen"
	"papimc/internal/node"
)

func main() {
	target := flag.String("target", "both", "daemon | proxy | both (self-hosted testbed), or a host:port to load externally")
	machine := flag.String("machine", "summit", "summit | tellico (self-hosted testbed)")
	mode := flag.String("mode", "closed", "closed | open")
	sweepFlag := flag.String("sweep", "1,2,4,8", "comma-separated worker counts")
	ops := flag.Int("ops", 200, "requests per worker (0 = run for -duration)")
	duration := flag.Duration("duration", 0, "wall deadline when -ops is 0 (0 = 1s); with -spec -live, cuts the spec's horizon short")
	rate := flag.Float64("rate", 50_000, "open-loop total arrival rate, fetched sets/second")
	numPMIDs := flag.Int("pmids", 8, "number of metrics each request fetches (the most a -spec request's size can ask for)")
	pipeline := flag.Int("pipeline", 0, "share N pipelined connections across all workers (0 = one connection per worker)")
	batch := flag.Int("batch", 1, "PMID sets per request: >1 bundles them into one FetchBatch round trip")
	specPath := flag.String("spec", "", "workload spec file: run the workload model instead of a sweep")
	mult := flag.Float64("mult", 0, "workload rate multiplier (0 = spec's own, or the replayed trace's)")
	record := flag.String("record", "", "write the virtual-time workload run's request trace to this file")
	replay := flag.String("replay", "", "replay a recorded trace instead of generating arrivals")
	live := flag.Bool("live", false, "pace the workload's arrivals against a real tier in wall-clock time")
	workers := flag.Int("workers", 32, "connections of a -spec -live run")
	tenant := flag.Uint64("tenant", 0, "tag every connection with this tenant ID (0 = default tenant)")
	tenants := flag.String("tenants", "", "multi-tenant run: comma-separated name=id streams (e.g. gold=1,guest=2), one concurrent stream each")
	flag.Parse()

	if *specPath == "" && *replay != "" {
		usage("-replay needs -spec: the trace stores the schedule, the spec the cohorts and service model")
	}
	if *specPath != "" && !*live {
		virtualMain(*specPath, *replay, *record, *mult)
		return
	}
	if (*tenant != 0 || *tenants != "") && *pipeline > 0 {
		usage("-tenant/-tenants use one tagged connection per worker and cannot combine with -pipeline")
	}

	sweep, err := parseSweep(*sweepFlag)
	if err != nil {
		usage(err.Error())
	}
	// newOpts builds one run's options. A fixed rate serves any number of
	// runs, a spec's arrival stream exactly one, so every run asks anew.
	base := loadgen.Options{Ops: *ops, Duration: *duration, PMIDs: pmidSet(*numPMIDs), Batch: *batch}
	newOpts := func() loadgen.Options { return base }
	switch {
	case *specPath != "":
		if *record != "" {
			usage("-record stores the model's outcomes and needs a virtual-time run; drop -live")
		}
		*mode, sweep = "open", []int{*workers}
		newOpts = liveSpec(*specPath, *replay, *mult, base)
	case *mode == "open":
		if base.Schedule, err = loadgen.FixedRate(*rate / float64(max(*batch, 1))); err != nil {
			usage(err.Error())
		}
	case *mode != "closed":
		usage(fmt.Sprintf("unknown mode %q", *mode))
	}

	if *tenants != "" && len(sweep) > 1 {
		fmt.Fprintf(os.Stderr, "pcploadgen: -tenants runs every stream at the first -sweep entry (%d workers), not at %v\n", sweep[0], sweep[1:])
	}

	tiers, closeTiers, err := hostTiers(*target, *machine)
	if err != nil {
		fail(err)
	}
	defer closeTiers()
	for _, tr := range tiers {
		fmt.Printf("target=%s addr=%s mode=%s pmids=%d", tr.name, tr.addr, *mode, *numPMIDs)
		if *pipeline > 0 {
			fmt.Printf(" pipeline=%d", *pipeline)
		}
		if *batch > 1 {
			fmt.Printf(" batch=%d", *batch)
		}
		if *tenant != 0 {
			fmt.Printf(" tenant=%d", *tenant)
		}
		fmt.Println()
		if *tenants != "" {
			// Multi-tenant overload shape: one concurrent stream per
			// tenant at the first sweep entry's worker count, reported
			// per tenant (ops, errors, sheds, latency quantiles).
			loads, err := parseTenants(*tenants, tr.addr, newOpts, sweep[0])
			if err != nil {
				usage(err.Error())
			}
			results, err := loadgen.RunTenants(loads)
			if err != nil {
				fail(err)
			}
			fmt.Print(loadgen.TenantReport(results))
			fmt.Println()
			continue
		}
		factory := loadgen.DialFactory(tr.addr, uint32(*tenant))
		if *pipeline > 0 {
			factory = loadgen.PipelinedFactory(tr.addr, *pipeline)
		}
		results, err := loadgen.Sweep(factory, sweep, newOpts())
		if err != nil {
			fail(err)
		}
		fmt.Print(loadgen.Report(results))
		fmt.Println()
	}
}

// tier is one address to load and the name it is reported under.
type tier struct{ name, addr string }

// hostTiers resolves -target: an external host:port as given, or the
// named tiers of a self-hosted testbed — a simulated node with a live
// PMCD daemon, and a pmproxy in front of it when asked for — which stop
// tears down.
func hostTiers(target, machine string) (tiers []tier, stop func(), err error) {
	if target != "daemon" && target != "proxy" && target != "both" {
		return []tier{{target, target}}, func() {}, nil
	}
	m := arch.Summit()
	if strings.EqualFold(machine, "tellico") {
		m = arch.Tellico()
	}
	tb, err := node.NewTestbed(m, 1, node.Options{DisableNoise: true})
	if err != nil {
		return nil, nil, err
	}
	if target != "proxy" {
		tiers = append(tiers, tier{"daemon", tb.PMCDAddr})
	}
	if target != "daemon" {
		_, addr, err := tb.StartProxy()
		if err != nil {
			tb.Close()
			return nil, nil, err
		}
		tiers = append(tiers, tier{"proxy", addr})
	}
	return tiers, func() { tb.Close() }, nil
}

// parseTenants expands "gold=1,guest=2" into one TenantLoad per stream,
// each running its own copy of the options at the given worker count.
func parseTenants(spec, addr string, newOpts func() loadgen.Options, workers int) ([]loadgen.TenantLoad, error) {
	var loads []loadgen.TenantLoad
	for _, part := range strings.Split(spec, ",") {
		name, idStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tenants entry %q (want name=id)", part)
		}
		id, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad tenant id in -tenants entry %q: %v", part, err)
		}
		opts := newOpts()
		opts.Workers = workers
		loads = append(loads, loadgen.TenantLoad{
			Name:    name,
			Tenant:  uint32(id),
			Factory: loadgen.DialFactory(addr, uint32(id)),
			Opts:    opts,
		})
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("empty -tenants")
	}
	return loads, nil
}

func parseSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad worker count %q in -sweep", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -sweep")
	}
	return out, nil
}

func pmidSet(n int) []uint32 {
	if n <= 0 {
		n = 1
	}
	pmids := make([]uint32, n)
	for i := range pmids {
		pmids[i] = uint32(i + 1)
	}
	return pmids
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "pcploadgen:", msg)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pcploadgen:", err)
	os.Exit(1)
}
