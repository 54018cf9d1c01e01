package pmproxy

import (
	"reflect"
	"testing"
	"time"

	"papimc/internal/pcp"
	"papimc/internal/simtime"
)

// TestProxyFetchBatchOneUpstreamRoundTrip is the batch coalescer's
// acceptance test: a cold batch of n distinct sets (one duplicated)
// costs the unique sets upstream but exactly ONE grouped upstream round
// trip, the duplicate rides along, and a second batch inside the same
// sampling interval is served entirely from the cache.
func TestProxyFetchBatchOneUpstreamRoundTrip(t *testing.T) {
	_, _, _, p, addr := rig(t, nil)
	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Version() < pcp.Version3 {
		t.Fatalf("client negotiated version %d, want batch-capable", c.Version())
	}

	sets := [][]uint32{{1, 2}, {3, 4, 5}, {6}, {1, 2}} // last duplicates the first
	out, err := c.FetchBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(sets) {
		t.Fatalf("got %d results for %d sets", len(out), len(sets))
	}
	for si, res := range out {
		if len(res.Values) != len(sets[si]) {
			t.Fatalf("set %d: %d values for %d pmids", si, len(res.Values), len(sets[si]))
		}
		for j, v := range res.Values {
			if v.PMID != sets[si][j] || v.Status != pcp.StatusOK {
				t.Fatalf("set %d value %d = %+v, want OK for pmid %d", si, j, v, sets[si][j])
			}
		}
	}
	if !reflect.DeepEqual(out[0], out[3]) {
		t.Fatalf("duplicate sets answered differently:\n%+v\n%+v", out[0], out[3])
	}
	st := p.Stats()
	if st.ClientFetches != int64(len(sets)) {
		t.Errorf("ClientFetches = %d, want %d (one per batch set)", st.ClientFetches, len(sets))
	}
	if st.UpstreamFetches != 3 {
		t.Errorf("UpstreamFetches = %d, want 3 (unique cold sets)", st.UpstreamFetches)
	}
	if st.UpstreamBatchRTs != 1 {
		t.Errorf("UpstreamBatchRTs = %d, want 1 — the batch must group its misses into one round trip", st.UpstreamBatchRTs)
	}

	// Same interval, same sets: pure cache, no new upstream traffic.
	again, err := c.FetchBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, out) {
		t.Fatal("cached batch answer differs from the answer that filled the cache")
	}
	st2 := p.Stats()
	if st2.UpstreamFetches != st.UpstreamFetches || st2.UpstreamBatchRTs != st.UpstreamBatchRTs {
		t.Errorf("warm batch went upstream: %+v -> %+v", st, st2)
	}
	if st2.CoalescedHits < st.CoalescedHits+int64(len(sets)) {
		t.Errorf("CoalescedHits = %d after warm batch, want >= %d", st2.CoalescedHits, st.CoalescedHits+int64(len(sets)))
	}
}

// TestProxyBatchMatchesSingleFetches: inside one sampling interval a
// batch answer and per-set single fetches are the same cached bytes.
func TestProxyBatchMatchesSingleFetches(t *testing.T) {
	_, _, _, p, _ := rig(t, nil)
	sets := [][]uint32{{1, 2, 3}, {4}, {5, 6}}
	batch, err := p.FetchBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	for si, set := range sets {
		single, err := p.Fetch(set)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, batch[si]) {
			t.Errorf("set %d: single fetch %+v != batch answer %+v", si, single, batch[si])
		}
	}
}

// TestProxyBatchStaleFallback: when the grouped upstream round trip
// fails, each missing set individually falls back to its cached answer
// — the batch degrades per set, like single fetches do.
func TestProxyBatchStaleFallback(t *testing.T) {
	_, clock, d, p, _ := rig(t, func(c *Config) {
		c.MaxRetries = 0
		c.Timeout = 200 * time.Millisecond
	})
	sets := [][]uint32{{1, 2}, {3, 4}}
	warm, err := p.FetchBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	d.Close() // upstream gone

	clock.Advance(sampleInterval + simtime.Millisecond)
	stale, err := p.FetchBatch(sets)
	if err != nil {
		t.Fatalf("stale batch serve failed: %v", err)
	}
	if !reflect.DeepEqual(stale, warm) {
		t.Fatalf("stale batch re-stamped or changed:\nwarm:  %+v\nstale: %+v", warm, stale)
	}
	if st := p.Stats(); st.StaleServes != int64(len(sets)) {
		t.Errorf("StaleServes = %d, want %d (one per degraded set)", st.StaleServes, len(sets))
	}

	// A set with no cached answer fails the whole batch: there is
	// nothing safe to return for it.
	if _, err := p.FetchBatch([][]uint32{{1, 2}, {7, 8}}); err == nil {
		t.Error("batch containing an uncached set succeeded with upstream down")
	}
}
