package pmproxy

import (
	"sync"
	"testing"
)

// TestCacheEntries: each distinct pmid-set is one cache entry, and the
// map is reset, not grown, once it holds maxEntries.
func TestCacheEntries(t *testing.T) {
	_, _, _, p, _ := rig(t, nil)
	entries := func() int {
		p.cacheMu.Lock()
		defer p.cacheMu.Unlock()
		return len(p.cache)
	}
	for i := 0; i < maxEntries; i++ {
		// Distinct pmid-sets; unknown pmids still produce a valid result
		// (per-value NoSuchPMID status), which is all the cache needs.
		if _, err := p.Fetch([]uint32{uint32(i + 1), uint32(i + 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := entries(); n != maxEntries {
		t.Errorf("cache holds %d entries, want %d", n, maxEntries)
	}
	if st := p.Stats(); st.UpstreamFetches != maxEntries || st.CoalescedHits != 0 {
		t.Errorf("stats = %+v, want %d upstream fetches and 0 hits", st, maxEntries)
	}
	if _, err := p.Fetch([]uint32{0}); err != nil {
		t.Fatal(err)
	}
	if n := entries(); n != 1 {
		t.Errorf("cache holds %d entries past the bound, want 1 after the reset", n)
	}
}

// TestStatsExactUnderConcurrency: the lock-free fast path must not lose
// or double-count. With a frozen clock the coalescing counts are exactly
// predictable; with the clock advancing concurrently the split between
// hits and upstream fetches is racy but the counters must still balance
// to the fetch count exactly.
func TestStatsExactUnderConcurrency(t *testing.T) {
	_, clock, _, p, _ := rig(t, nil)
	const goroutines, per = 8, 40
	hammer := func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := p.Fetch([]uint32{1, 2}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	// Phase 1: frozen clock — every fetch after the first is a hit.
	hammer()
	st := p.Stats()
	if st.ClientFetches != goroutines*per || st.UpstreamFetches != 1 ||
		st.CoalescedHits != goroutines*per-1 {
		t.Errorf("frozen-clock stats = %+v, want %d fetches, 1 upstream, %d hits",
			st, goroutines*per, goroutines*per-1)
	}

	// Phase 2: clock advancing concurrently forces refreshes to race
	// with hits. The hit/upstream split depends on timing, but the
	// accounting must stay exact: each fetch increments exactly one of
	// the outcome counters.
	stop := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	go func() {
		defer adv.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(sampleInterval / 4)
			}
		}
	}()
	hammer()
	close(stop)
	adv.Wait()

	st = p.Stats()
	if want := int64(2 * goroutines * per); st.ClientFetches != want {
		t.Errorf("client fetches = %d, want %d", st.ClientFetches, want)
	}
	if st.ClientFetches != st.UpstreamFetches+st.CoalescedHits+st.StaleServes {
		t.Errorf("counters don't balance: %+v", st)
	}
	if st.StaleServes != 0 {
		t.Errorf("stale serves = %d with a live upstream", st.StaleServes)
	}
	if st.UpstreamFetches < 2 {
		t.Errorf("upstream fetches = %d, want refreshes under an advancing clock", st.UpstreamFetches)
	}
}

// TestPoolBoundsUpstreamConnections: concurrent misses for distinct
// pmid-sets pipeline through the pool, but the proxy never holds more
// upstream connections than PoolSize.
func TestPoolBoundsUpstreamConnections(t *testing.T) {
	_, _, _, p, _ := rig(t, func(c *Config) { c.PoolSize = 2 })
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := p.Fetch([]uint32{uint32(g + 1)}); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Redials > 2 {
		t.Errorf("redials = %d, want at most PoolSize=2", st.Redials)
	}
	if st.UpstreamFetches != 12 {
		t.Errorf("upstream fetches = %d, want 12 distinct sets", st.UpstreamFetches)
	}
	p.freeMu.Lock()
	idle := len(p.free)
	p.freeMu.Unlock()
	if idle > 2 {
		t.Errorf("%d idle pooled connections, want at most 2", idle)
	}
}
