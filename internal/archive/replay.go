package archive

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

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
// rows. A Replay is safe for concurrent use.
type Replay struct {
	arch  *Archive
	clock *simtime.Clock
	res   Resolution           // pinned read resolution; ResRaw serves raw rows
	last  atomic.Pointer[plan] // the last window's plan, taken out by one call at a time
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
// resolution; it is FetchInto into a fresh result.
func (r *Replay) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	var res pcp.FetchResult
	if err := r.FetchInto(pmids, &res); err != nil {
		return pcp.FetchResult{}, err
	}
	return res, nil
}

// FetchInto is Fetch decoding into res, reusing res.Values' backing
// array, as pcp.Client's FetchInto does: with a warm result a fetch
// allocates nothing. Before the first recorded sample it serves that
// first sample (the daemon would have sampled on first contact); PMIDs
// outside the schema get StatusNoSuchPMID, matching daemon behaviour
// for unknown PMIDs. On an error res is left untouched.
func (r *Replay) FetchInto(pmids []uint32, res *pcp.FetchResult) error {
	now := int64(r.clock.Now())
	row, ok := r.arch.floorAt(r.res, now)
	if !ok {
		// Before the earliest servable row: serve it (the daemon would
		// have sampled on first contact). A rollup tier's earliest row
		// sits at its first bucket's *last* sample, after the tier span's
		// start, so floor at that bucket's LastTS, not at the span start.
		// An empty archive or tier floors nowhere.
		first, _, _ := r.arch.SpanAt(r.res)
		if t := r.arch.snap.Load().tier(int64(r.res)); t != nil && t.count() > 0 {
			first = t.at(0).LastTS
		}
		if row, ok = r.arch.floorAt(r.res, first); !ok {
			return fmt.Errorf("archive: replay fetch at %d: %w", now, ErrEmpty)
		}
	}
	res.Timestamp = row.ts
	res.Values = slices.Grow(res.Values[:0], len(pmids))
	for _, id := range pmids {
		v := pcp.FetchValue{PMID: id, Status: pcp.StatusNoSuchPMID}
		if c, inSchema := r.arch.col[id]; inSchema {
			v.Status, v.Value = pcp.StatusOK, row.value(c)
		}
		res.Values = append(res.Values, v)
	}
	return nil
}

// EvalWindow implements the metricql WindowPlanner interface: windowed
// functions over a replay source are answered straight from the
// archive over the half-open window [t0, t1) (WindowAt), selecting the
// coarsest tier that satisfies the window (a replay pinned to a
// resolution never reads finer than its pin). ok is
// false when the function or window cannot be pushed down — the engine
// then falls back to its sample-ring path. The PMIDs of a selector fold
// over one plan while its snapshot is published.
func (r *Replay) EvalWindow(fn string, pmid uint32, t0, t1 int64) (float64, bool, error) {
	switch fn {
	case "avg_over", "min_over", "max_over", "rate_over":
	default:
		return 0, false, nil
	}
	c, ok := r.arch.col[pmid]
	if !ok {
		return 0, false, fmt.Errorf("%w: %d", ErrNoPMID, pmid)
	}
	s := r.arch.snap.Load()
	p := r.last.Swap(nil)
	if p == nil {
		p = new(plan)
	}
	defer r.last.Store(p)
	if p.snap != s || p.t0 != t0 || p.t1 != t1 {
		res := max(s.selectResolution(t0, t1), r.res)
		if err := r.arch.planWindow(p, s, res, t0, t1); err != nil {
			p.snap = nil
			if errors.Is(err, ErrNoTier) {
				return 0, false, nil
			}
			return 0, false, err
		}
	}
	agg, err := p.fold(c)
	if err != nil {
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
