// Command pmlogger records a PMCD daemon's metrics into an archive file,
// like PCP's pmlogger: it polls the daemon at a fixed interval, appends
// each new sample (duplicate daemon samples are deduplicated by
// timestamp), and saves a varint-delta-encoded archive that cmd tools
// and the archive replay source can consume offline. The file is replaced
// atomically at every sealed raw block and once more at exit.
//
// Usage:
//
//	pmlogger -addr 127.0.0.1:44321 -o run.pmlog [-interval 100ms] [-duration 10s]
//	pmlogger -addr ... -o run.pmlog -rollup 10s,5m -raw-retention 1h
//	pmlogger -dump run.pmlog
//
// With -rollup the archive maintains multi-resolution rollup tiers
// alongside the raw samples; with -raw-retention each append also folds
// the raw blocks older than the retention into the tiers, bounding the
// raw footprint of a long recording while keeping its full history
// queryable at rollup resolution.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"papimc/internal/archive"
	"papimc/internal/pcp"
	"papimc/internal/units"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:44321", "PMCD daemon address")
	out := flag.String("o", "pmlogger.pmlog", "archive output file")
	interval := flag.Duration("interval", 100*time.Millisecond, "polling interval")
	duration := flag.Duration("duration", 0, "stop after this long (0 = until Ctrl-C)")
	maxBytes := flag.Int("max-bytes", archive.DefaultMaxBytes, "ring retention budget for encoded samples")
	rollup := flag.String("rollup", "", "comma-separated rollup tier widths, finest first (e.g. 10s,5m)")
	rawRetention := flag.Duration("raw-retention", 0, "on each append, fold raw blocks older than this that the rollup tiers cover (0 = keep all raw)")
	dump := flag.String("dump", "", "print the given archive file and exit")
	flag.Parse()

	if *dump != "" {
		if err := dumpArchive(*dump); err != nil {
			fmt.Fprintln(os.Stderr, "pmlogger:", err)
			os.Exit(1)
		}
		return
	}
	opts := archive.Options{MaxBytes: *maxBytes, RawRetention: rawRetention.Nanoseconds()}
	var err error
	if opts.Rollups, err = parseRollups(*rollup); err != nil {
		fmt.Fprintln(os.Stderr, "pmlogger:", err)
		os.Exit(2)
	}
	if err := record(*addr, *out, *interval, *duration, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pmlogger:", err)
		os.Exit(1)
	}
}

// parseRollups turns "10s,5m" into ascending tier widths in nanoseconds.
func parseRollups(spec string) ([]int64, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(spec, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -rollup %q: %v", part, err)
		}
		out = append(out, d.Nanoseconds())
	}
	return out, nil
}

func record(addr, out string, interval, duration time.Duration, opts archive.Options) error {
	client, err := pcp.Dial(addr)
	if err != nil {
		return err
	}
	defer client.Close()
	rec, err := archive.NewRecorderFromUpstream(client, opts)
	if err != nil {
		return err
	}
	a, saved := rec.Archive(), 0
	fmt.Printf("pmlogger: recording %d metrics from %s every %v\n", len(a.Names()), addr, interval)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	var deadline <-chan time.Time
	if duration > 0 {
		deadline = time.After(duration)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		case <-deadline:
			done = true
		case <-tick.C:
			if err := rec.Record(); err != nil {
				fmt.Fprintln(os.Stderr, "pmlogger: sample failed:", err)
			}
		}
		// A raw block seals every DefaultBlockSamples rows: save then, and at exit.
		if n := a.Stats().Appended; done || n-saved >= archive.DefaultBlockSamples {
			if err := a.Save(out); err != nil {
				return err
			}
			saved = n
		}
	}

	st := a.Stats()
	fmt.Printf("pmlogger: wrote %s: %d samples (%d evicted, %d folded), %s encoded vs %s raw\n",
		out, st.Samples, st.Evicted, st.Folded, units.FormatBytes(int64(st.EncodedBytes)), units.FormatBytes(int64(st.RawBytes)))
	for _, ts := range st.Tiers {
		fmt.Printf("pmlogger: rollup tier %v: %d buckets (%d evicted)\n", ts.Resolution, ts.Buckets, ts.Evicted)
	}
	return nil
}

func dumpArchive(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	a, err := archive.Read(f, archive.Options{})
	if err != nil {
		return err
	}
	st := a.Stats()
	first, last, ok := a.Span()
	fmt.Printf("%s: %d metrics, %d samples, %s encoded\n",
		path, len(a.Names()), st.Samples, units.FormatBytes(int64(st.EncodedBytes)))
	if !ok {
		return nil
	}
	fmt.Printf("span: %d ns .. %d ns (%.3f s)\n", first, last, float64(last-first)/1e9)
	for _, ts := range st.Tiers {
		tf, tl, tok := a.SpanAt(ts.Resolution)
		if !tok {
			continue
		}
		fmt.Printf("tier %v: %d buckets (%d evicted), span %.3f s .. %.3f s\n",
			ts.Resolution, ts.Buckets, ts.Evicted, float64(tf)/1e9, float64(tl)/1e9)
	}
	for _, e := range a.Names() {
		fmt.Printf("  pmid %3d  %s", e.PMID, e.Name)
		if last > first {
			if w, err := a.WindowAt(archive.ResRaw, e.PMID, first, last); err == nil {
				fmt.Printf("  avg %.3g/s", w.Delta/w.Seconds)
			}
		}
		fmt.Println()
	}
	return nil
}
