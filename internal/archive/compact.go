package archive

import (
	"sync"
	"time"
)

// Compaction: folding aged raw blocks out of the raw tier once the
// rollup tiers cover them, and trimming decoded-block caches, all
// without ever blocking readers.
//
// Publication protocol. The compactor takes the writer mutex (so it
// serializes with Append, never with readers), builds a new snapshot
// value sharing the immutable blocks and buckets it keeps, and installs
// it with one atomic pointer store. A reader that loaded the previous
// snapshot keeps a fully consistent view — evicted blocks stay alive
// as long as that reader holds them — and the next load observes the
// new list in full. There is no intermediate state to observe.

// hotDecodedBlocks is how many of the newest sealed blocks keep the
// decoded rows Samples and All cache across a Compact pass; older
// caches are dropped and repopulate on demand. It is a memory bound,
// not an optimisation: decoded rows cost several times their encoded
// bytes, and without the trim one scan of a long archive would leave
// all of it decoded for as long as the raw tier retains it. Windows and
// floors do not decode rows and are bounded by maxCuts instead.
const hotDecodedBlocks = 8

// Compact runs one compaction pass: raw blocks whose samples are
// entirely older than newest-RawRetention *and* entirely covered by
// completed buckets of every rollup tier are folded out of the raw
// tier (their history remains queryable through the rollups), and
// decoded caches of cold blocks are dropped. Returns the number of raw
// rows folded. A zero RawRetention leaves raw blocks alone (cache
// trimming still runs).
func (a *Archive) Compact() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.snap.Load()
	if !cur.seenAny {
		return 0
	}

	next := *cur // shallow copy: immutable parts shared
	next.compactions++
	folded := 0

	if a.opts.RawRetention > 0 && len(cur.blocks) > 0 && len(cur.tiers) > 0 {
		cutoff := cur.lastTS - a.opts.RawRetention
		// A raw block may fold only when every rollup tier has a
		// *completed* bucket run covering its whole span — otherwise
		// folding would lose history (e.g. rollups disabled, or the
		// block still feeds an open bucket).
		covered := cutoff
		for i := range cur.tiers {
			t := &cur.tiers[i]
			if len(t.done) == 0 {
				covered = cur.blocks[0].FirstTS - 1 // nothing completed: fold nothing
				break
			}
			if end := t.done[len(t.done)-1].LastTS; end < covered {
				covered = end
			}
		}
		drop := 0
		for drop < len(cur.blocks) && cur.blocks[drop].LastTS <= min(cutoff, covered) {
			folded += cur.blocks[drop].Count
			next.sealedBytes -= len(cur.blocks[drop].buf)
			drop++
		}
		if drop > 0 {
			next.blocks = cur.blocks[drop:]
			next.rawSamples -= folded
			next.folded += folded
		}
	}

	// Trim decoded caches on all but the newest hot blocks. Readers
	// holding a decoded slice keep it; the block just re-decodes for
	// the next cold query. Only a block that has one is written to: a
	// store dirties the cache line readers load the block's summary from.
	for i := 0; i < len(next.blocks)-hotDecodedBlocks; i++ {
		if b := next.blocks[i]; b.dec.Load() != nil {
			b.dec.Store(nil)
		}
	}

	a.snap.Store(&next)
	return folded
}

// StartCompactor runs Compact every interval on a background goroutine
// until the returned stop function is called. Stop is idempotent and
// waits for an in-flight pass to finish.
func (a *Archive) StartCompactor(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				a.Compact()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
