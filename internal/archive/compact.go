package archive

import (
	"sync"
	"time"
)

// Compaction trims the decoded-row caches of cold blocks. It retires
// nothing: every append already keeps the raw tier inside its
// retention (see retire), so compaction takes no lock and publishes no
// snapshot. A reader holding a decoded slice keeps it; the block just
// re-decodes for the next cold query.

// hotDecodedBlocks is how many of the newest sealed blocks keep the
// decoded rows Samples and All cache across a Compact pass; older
// caches are dropped and repopulate on demand. It is a memory bound,
// not an optimisation: decoded rows cost several times their encoded
// bytes, and without the trim one scan of a long archive would leave
// all of it decoded for as long as the raw tier retains it. Windows and
// floors do not decode rows and are bounded by maxCuts instead.
const hotDecodedBlocks = 8

// Compact runs one compaction pass: it drops the decoded caches of all
// but the newest hotDecodedBlocks sealed blocks.
func (a *Archive) Compact() {
	a.compactions.Add(1)
	blocks := a.snap.Load().blocks
	// Only a block that has a cache is written to: a store dirties the
	// cache line readers load the block's summary from.
	for _, b := range blocks[:max(len(blocks)-hotDecodedBlocks, 0)] {
		if b.dec.Load() != nil {
			b.dec.Store(nil)
		}
	}
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
