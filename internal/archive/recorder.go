package archive

import (
	"sync"

	"papimc/internal/pcp"
)

// Fetcher is the live upstream a Recorder wraps; *pcp.Client satisfies
// it (so does a pmproxy-side client, letting recordings be taken through
// the proxy tier).
type Fetcher interface {
	Names() ([]pcp.NameEntry, error)
	Lookup(name string) (uint32, error)
	Fetch(pmids []uint32) (pcp.FetchResult, error)
}

// Recorder tees fetch results into an archive while serving them to the
// caller — pmlogger's recording mode. It implements the same Source
// interface as a live client, so a profiler pointed at a Recorder
// produces both its live result and a replayable recording of the exact
// daemon samples that result was computed from.
//
// Every Fetch pulls the full schema from upstream (one daemon round trip
// regardless of how many columns the caller wanted), records the row,
// and projects the caller's PMIDs from it — so the archive always holds
// complete rows.
type Recorder struct {
	mu      sync.Mutex
	src     Fetcher
	arch    *Archive
	skipped int // rows not recorded because a schema value errored
}

// NewRecorder wraps src, recording into a.
func NewRecorder(src Fetcher, a *Archive) *Recorder {
	return &Recorder{src: src, arch: a}
}

// NewRecorderFromUpstream builds an archive whose schema is the
// upstream's full current namespace, and a recorder over it.
func NewRecorderFromUpstream(src Fetcher, opts Options) (*Recorder, error) {
	names, err := src.Names()
	if err != nil {
		return nil, err
	}
	a, err := New(names, opts)
	if err != nil {
		return nil, err
	}
	return NewRecorder(src, a), nil
}

// Archive returns the recording.
func (r *Recorder) Archive() *Archive { return r.arch }

// Skipped reports how many fetched rows could not be recorded (a schema
// value carried an error status).
func (r *Recorder) Skipped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.skipped
}

// Names delegates to the live upstream.
func (r *Recorder) Names() ([]pcp.NameEntry, error) { return r.src.Names() }

// Lookup delegates to the live upstream.
func (r *Recorder) Lookup(name string) (uint32, error) { return r.src.Lookup(name) }

// Fetch fetches the schema (plus any requested off-schema PMIDs) from
// upstream, records the schema row, and answers with the requested
// PMIDs in request order.
func (r *Recorder) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	req := r.arch.PMIDs()
	for _, id := range pmids {
		if _, in := r.arch.col[id]; !in {
			req = append(req, id)
		}
	}
	res, err := r.src.Fetch(req)
	if err != nil {
		return pcp.FetchResult{}, err
	}
	if aerr := r.arch.Append(res); aerr != nil {
		r.mu.Lock()
		r.skipped++
		r.mu.Unlock()
	}
	byPMID := make(map[uint32]pcp.FetchValue, len(res.Values))
	for _, v := range res.Values {
		byPMID[v.PMID] = v
	}
	out := pcp.FetchResult{Timestamp: res.Timestamp, Values: make([]pcp.FetchValue, len(pmids))}
	for i, id := range pmids {
		out.Values[i] = pcp.FetchValue{PMID: id, Status: pcp.StatusNoSuchPMID}
		if v, ok := byPMID[id]; ok {
			out.Values[i] = v
		}
	}
	return out, nil
}

// Record performs one recording tick: fetch the full schema from
// upstream and append it. This is the pmlogger sampling-loop primitive;
// duplicate daemon samples (same timestamp) are deduplicated by Append.
func (r *Recorder) Record() error {
	res, err := r.src.Fetch(r.arch.PMIDs())
	if err != nil {
		return err
	}
	return r.arch.Append(res)
}
