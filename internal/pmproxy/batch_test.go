package pmproxy

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
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

// TestProxyFetchIsOneSetBatch: a single fetch is the one-set batch.
// Twin proxies in front of one daemon take the same steps, one
// answering with FetchTenant and the other with FetchBatchTenant of the
// one set. In every serving case — hit, cold miss, shed with and
// without a cached answer for a degradable tenant or not, upstream down
// with and without a cache — the twins agree on values, error class,
// Stats and the tenant's stats.
func TestProxyFetchIsOneSetBatch(t *testing.T) {
	const tenant = 7
	set := []uint32{1, 2, 3}
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case IsShed(err):
			return "shed"
		case errors.Is(err, ErrUpstreamDown):
			return "down"
		}
		return err.Error()
	}
	cases := []struct {
		name                         string
		warm, fresh, degradable      bool
		shed, down                   bool
		wantClass                    string
		wantStale, wantUp, wantSheds int64
	}{
		{name: "hit", warm: true, fresh: true, wantClass: "ok"},
		{name: "cold-miss", wantClass: "ok", wantUp: 1},
		{name: "shed-cached-degradable", warm: true, shed: true, degradable: true, wantClass: "ok", wantStale: 1},
		{name: "shed-cached", warm: true, shed: true, wantClass: "shed", wantSheds: 1},
		{name: "shed-cold-degradable", shed: true, degradable: true, wantClass: "shed", wantSheds: 1},
		{name: "shed-cold", shed: true, wantClass: "shed", wantSheds: 1},
		{name: "down-cached", warm: true, down: true, wantClass: "ok", wantStale: 1},
		{name: "down-cold", down: true, wantClass: "down"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bed := startNestDaemon(t, sampleInterval)
			twin := func() *Proxy {
				p := New(Config{
					Upstream:   bed.Addr,
					Clock:      bed.Clock,
					Interval:   sampleInterval,
					Timeout:    2 * time.Second,
					MaxRetries: 1,
					Admission: AdmissionConfig{
						Policy:  "always-admit",
						Tenants: map[uint32]TenantConfig{tenant: {Degradable: tc.degradable}},
					},
				})
				t.Cleanup(func() { p.Close() })
				return p
			}
			single, batch := twin(), twin()
			if tc.warm {
				for _, p := range []*Proxy{single, batch} {
					if _, err := p.FetchTenant(tenant, set); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !tc.fresh {
				bed.Clock.Advance(sampleInterval + simtime.Millisecond)
			}
			if tc.shed {
				single.admit, batch.admit = rejectAll{}, rejectAll{}
			}
			if tc.down {
				bed.Daemon.Close()
			}
			before := batch.Stats()

			res, err := single.FetchTenant(tenant, set)
			out, berr := batch.FetchBatchTenant(tenant, [][]uint32{set})
			if class(err) != tc.wantClass || class(berr) != tc.wantClass {
				t.Fatalf("error classes: single %q (%v), batch %q (%v); want %q",
					class(err), err, class(berr), berr, tc.wantClass)
			}
			if berr == nil {
				if len(out) != 1 || !reflect.DeepEqual(out[0], res) {
					t.Errorf("batch answer %+v != single answer %+v", out, res)
				}
				if len(res.Values) != len(set) {
					t.Errorf("answer has %d values for %d pmids", len(res.Values), len(set))
				}
			} else if out != nil || !reflect.DeepEqual(res, pcp.FetchResult{}) {
				t.Errorf("failed fetch returned answers: single %+v, batch %+v", res, out)
			}
			ss, bs := single.Stats(), batch.Stats()
			if ss != bs {
				t.Errorf("Stats differ:\nsingle: %+v\nbatch:  %+v", ss, bs)
			}
			if st, bt := single.TenantStatsFor(tenant), batch.TenantStatsFor(tenant); st != bt {
				t.Errorf("tenant stats differ:\nsingle: %+v\nbatch:  %+v", st, bt)
			}
			if d := bs.UpstreamFetches - before.UpstreamFetches; d != tc.wantUp {
				t.Errorf("UpstreamFetches += %d, want %d", d, tc.wantUp)
			}
			if d := bs.UpstreamBatchRTs - before.UpstreamBatchRTs; d != 0 {
				t.Errorf("UpstreamBatchRTs += %d, want 0: one miss set is not a batch round trip", d)
			}
			if d := bs.StaleServes - before.StaleServes; d != tc.wantStale {
				t.Errorf("StaleServes += %d, want %d", d, tc.wantStale)
			}
			if d := bs.Shed - before.Shed; d != tc.wantSheds {
				t.Errorf("Shed += %d, want %d", d, tc.wantSheds)
			}
		})
	}
}

// TestProxyHitAllocs: a warm hit costs a single fetch no allocation and
// a batch only its results slice — serving the one set as a batch adds
// nothing to the hot path. Over a loopback connection a warm batch hit
// allocates nothing at all, on the client, the server or the proxy (all
// run in this process, so all are counted): the handler answers into
// the server's request scratch.
func TestProxyHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, _, _, p, addr := rig(t, nil)
	pmids := []uint32{1, 2, 3}
	sets := [][]uint32{{1, 2, 3}, {4, 5}, {1, 2, 3}, {6}}
	if _, err := p.FetchBatch(sets); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := p.Fetch(pmids); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm Fetch hit: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := p.FetchBatch(sets); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Errorf("warm FetchBatch hit: %v allocs, want 1 (the results slice)", a)
	}

	c, err := pcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var results []pcp.FetchResult
	wire := func() {
		if results, err = c.FetchBatchInto(sets, results); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		wire() // warm both ends' buffers
	}
	if a := testing.AllocsPerRun(200, wire); a != 0 {
		t.Errorf("warm FetchBatchInto hit over loopback: %v allocs, want 0", a)
	}
	if st := p.Stats(); st.UpstreamFetches != 3 {
		t.Errorf("upstream fetches = %d, want 3: every warm set is a hit", st.UpstreamFetches)
	}
}

// TestProxyOverlappingBatchesConcurrent: batches sharing sets in
// different orders, duplicates included, and single fetches of the same
// sets, from many goroutines while the clock crosses intervals, take
// their entry locks in one order. Every request completes with its own
// PMIDs, and every set is accounted exactly once.
func TestProxyOverlappingBatchesConcurrent(t *testing.T) {
	_, clock, _, p, _ := rig(t, nil)
	a, b, c := []uint32{1, 2}, []uint32{3}, []uint32{4, 5, 6}
	reqs := [][][]uint32{{a, b, c}, {c, b, a}, {b, a, b}, {c}, {a, c, a, c}}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	var issued atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sets := reqs[(g+i)%len(reqs)]
				issued.Add(int64(len(sets)))
				out, err := p.FetchBatch(sets)
				if err == nil && len(sets) == 1 {
					var res pcp.FetchResult
					res, err = p.Fetch(sets[0])
					out = []pcp.FetchResult{res}
					issued.Add(1)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for si, set := range sets {
					if len(out[si].Values) != len(set) || out[si].Values[0].PMID != set[0] {
						t.Errorf("set %v answered with %+v", set, out[si].Values)
						return
					}
				}
				if g == 0 {
					clock.Advance(sampleInterval / 2)
				}
			}
		}()
	}
	wg.Wait()
	st, ts := p.Stats(), p.TenantStatsFor(DefaultTenant)
	if st.ClientFetches != issued.Load() || ts.Issued != issued.Load() || ts.Admitted != issued.Load() {
		t.Errorf("issued %d sets: stats %+v, tenant %+v", issued.Load(), st, ts)
	}
	if st.StaleServes != 0 || st.Shed != 0 || st.UpstreamErrors != 0 {
		t.Errorf("degraded with a live upstream: %+v", st)
	}
}
