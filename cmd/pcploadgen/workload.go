// Workload-model mode. -spec runs a declarative workload through
// internal/workload in virtual time, with optional trace recording and
// bit-exact replay; -spec -live hands the same arrival stream to
// internal/loadgen as its open-loop schedule. This file is the seam:
// workload knows no wall clock, loadgen no spec.
package main

import (
	"fmt"
	"time"

	"papimc/internal/loadgen"
	"papimc/internal/workload"
)

func virtualMain(specPath, replayPath, recordPath string, mult float64) {
	spec, err := workload.LoadSpec(specPath)
	if err != nil {
		fail(err)
	}
	o := workload.Options{Mult: mult}
	var tr workload.Trace
	if recordPath != "" {
		o.Record = &tr
	}
	var rep *workload.Report
	if replayPath != "" {
		rec, err := workload.ReadTraceFile(replayPath)
		if err != nil {
			fail(err)
		}
		rep, err = workload.Replay(rec, spec, o)
		if err != nil {
			fail(err)
		}
		fmt.Printf("replayed %d requests from %s\n", len(rec.Rows), replayPath)
	} else {
		rep, err = workload.Run(spec, o)
		if err != nil {
			fail(err)
		}
	}
	fmt.Print(rep.Render())
	if recordPath != "" {
		if err := tr.WriteFile(recordPath); err != nil {
			fail(err)
		}
		fmt.Printf("recorded %d requests to %s\n", len(tr.Rows), recordPath)
	}
}

// liveSpec loads the spec (and the trace to replay, if any), exiting on
// failure, and returns the options of a wall-clock run over its
// arrivals: base with Ops cleared, the window set to the horizon — cut
// short by base.Duration when that is set — and a fresh schedule on every
// call, because a stream serves one run.
func liveSpec(specPath, replayPath string, mult float64, base loadgen.Options) func() loadgen.Options {
	spec, err := workload.LoadSpec(specPath)
	if err != nil {
		fail(err)
	}
	arrivals := func() func() (workload.Request, bool) {
		next, err := workload.Arrivals(spec, mult)
		if err != nil {
			fail(err)
		}
		return next
	}
	horizon := time.Duration(spec.Duration)
	if replayPath != "" {
		rec, err := workload.ReadTraceFile(replayPath)
		if err != nil {
			fail(err)
		}
		arrivals = rec.Arrivals
		if rec.Horizon > 0 {
			horizon = time.Duration(rec.Horizon)
		}
	}
	if base.Duration > 0 {
		horizon = min(horizon, base.Duration)
	}
	fmt.Printf("workload %s horizon=%v mode=wall-clock\n", spec.Name, horizon)
	base.Ops, base.Duration = 0, horizon
	return func() loadgen.Options {
		o := base
		o.Schedule = specSchedule(arrivals())
		return o
	}
}

// specSchedule adapts a workload arrival stream to a loadgen plan: the
// request's virtual arrival time becomes its wall-clock offset and its
// size the fetch width; cohort and class have no meaning on the wire.
func specSchedule(next func() (workload.Request, bool)) loadgen.Schedule {
	return func(int) (time.Duration, int, bool) {
		req, ok := next()
		return time.Duration(req.T), req.Size, ok
	}
}
