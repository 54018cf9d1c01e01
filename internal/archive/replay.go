package archive

import (
	"errors"
	"fmt"

	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// Replay serves an archive as if it were a live PMCD daemon: Fetch
// answers with the newest recorded sample at or before the replay
// clock's current time, exactly the row the daemon's sampling cache
// would have held then. It implements the pcpcomp Source interface, so
// a profile can be recomputed offline from a recording, and the
// metricql WindowPlanner interface, so windowed queries over a replay
// push down into the archive's rollup tiers instead of decoding raw
// rows.
type Replay struct {
	arch  *Archive
	clock *simtime.Clock
	res   Resolution // pinned read resolution; ResRaw serves raw rows
}

// NewReplay builds a replay source reading time from clock, serving
// full-resolution raw samples.
func NewReplay(a *Archive, clock *simtime.Clock) *Replay {
	return &Replay{arch: a, clock: clock}
}

// NewReplayAt builds a replay source pinned to one resolution: Fetch
// serves the newest rollup bucket's last-sample aggregates instead of
// raw rows, so a coarse dashboard can replay a long archive without
// touching the raw tier.
func NewReplayAt(a *Archive, clock *simtime.Clock, res Resolution) *Replay {
	return &Replay{arch: a, clock: clock, res: res}
}

// Resolution returns the replay's pinned read resolution.
func (r *Replay) Resolution() Resolution { return r.res }

// Names returns the recording's name table.
func (r *Replay) Names() ([]pcp.NameEntry, error) { return r.arch.Names(), nil }

// Lookup resolves a name against the recording's name table.
func (r *Replay) Lookup(name string) (uint32, error) { return r.arch.Lookup(name) }

// Fetch projects the requested PMIDs out of the sample a live daemon
// would have served at the clock's current time, at the replay's
// resolution. Before the first recorded sample it serves that first
// sample (the daemon would have sampled on first contact); PMIDs
// outside the schema get StatusNoSuchPMID, matching daemon behaviour
// for unknown PMIDs.
func (r *Replay) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	now := int64(r.clock.Now())
	s, ok := r.arch.FloorAt(r.res, now)
	if !ok {
		// Before the earliest servable row: serve it (the daemon would
		// have sampled on first contact). A rollup tier's earliest row
		// sits at its first bucket's *last* sample, after the tier span's
		// start, so floor at that bucket's LastTS, not at the span start.
		first, _, spanOK := r.arch.SpanAt(r.res)
		if spanOK && r.res != ResRaw {
			if bs, err := r.arch.Buckets(r.res, first, first); err == nil && len(bs) > 0 {
				first = bs[0].LastTS
			}
		}
		if !spanOK {
			return pcp.FetchResult{}, fmt.Errorf("archive: replay fetch at %d: %w", now, ErrEmpty)
		}
		if s, ok = r.arch.FloorAt(r.res, first); !ok {
			return pcp.FetchResult{}, fmt.Errorf("archive: replay fetch at %d: %w", now, ErrEmpty)
		}
	}
	out := pcp.FetchResult{Timestamp: s.Timestamp, Values: make([]pcp.FetchValue, len(pmids))}
	for i, id := range pmids {
		c, inSchema := r.arch.col[id]
		if !inSchema {
			out.Values[i] = pcp.FetchValue{PMID: id, Status: pcp.StatusNoSuchPMID}
			continue
		}
		out.Values[i] = pcp.FetchValue{PMID: id, Status: pcp.StatusOK, Value: s.Values[c]}
	}
	return out, nil
}

// EvalWindow implements the metricql WindowPlanner interface: windowed
// functions over a replay source are answered straight from the
// archive over the half-open window [t0, t1) (WindowAt), selecting the
// coarsest tier that satisfies the window (a replay pinned to a
// resolution never reads finer than its pin). ok is
// false when the function or window cannot be pushed down — the engine
// then falls back to its sample-ring path.
func (r *Replay) EvalWindow(fn string, pmid uint32, t0, t1 int64) (float64, bool, error) {
	switch fn {
	case "avg_over", "min_over", "max_over", "rate_over":
	default:
		return 0, false, nil
	}
	res := r.arch.SelectResolution(t0, t1)
	if res < r.res {
		res = r.res
	}
	agg, err := r.arch.WindowAt(res, pmid, t0, t1)
	if err != nil {
		if errors.Is(err, ErrEmpty) || errors.Is(err, ErrNoTier) {
			return 0, false, nil
		}
		return 0, false, err
	}
	if agg.Count == 0 {
		return 0, false, nil
	}
	switch fn {
	case "avg_over":
		return agg.Sum / float64(agg.Count), true, nil
	case "min_over":
		return float64(agg.Min), true, nil
	case "max_over":
		return float64(agg.Max), true, nil
	default: // rate_over
		if agg.Seconds <= 0 {
			return 0, false, nil
		}
		return agg.Delta / agg.Seconds, true, nil
	}
}
