package archive

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetentionFoldsAgedRaw: blocks older than RawRetention fold out
// of the raw tier as rows are appended, once every rollup tier covers
// them; their history stays queryable through the rollups; newer raw
// blocks survive.
func TestRetentionFoldsAgedRaw(t *testing.T) {
	a, _ := New(schema(1), Options{
		BlockSamples: 10,
		Rollups:      []int64{1000},
		RawRetention: 5000,
	})
	for i := 0; i < 200; i++ {
		if err := a.Append(row(int64(i)*100, uint64(i)*50)); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Folded == 0 {
		t.Fatal("appends folded nothing")
	}
	if st.Samples != st.Appended-st.Folded || st.Appended != 200 || st.Evicted != 0 {
		t.Errorf("stats after appends = %+v", st)
	}
	// Raw retention honored: remaining raw covers at least the window.
	first, last, ok := a.Span()
	if !ok || last-first < 5000-1000 {
		t.Errorf("raw span after fold = [%d, %d]", first, last)
	}
	if first <= 12_000 { // 200 rows to ts 19_900, retention 5000
		t.Errorf("raw blocks older than retention survived: first=%d", first)
	}
	// Folded history still answers through the rollup tier, exactly:
	// the counter climbs 50 per 100ns — 100 steps of 50 over the
	// window, divided by the window the same way the raw path divides.
	want := 5000.0 / (float64(10_000) / 1e9)
	rate, err := rateAt(a, 1000, 1, 0, 10_000)
	if err != nil || rate != want {
		t.Errorf("rate over folded span = %v, %v; want exactly %v", rate, err, want)
	}
	// The raw path over the folded span now sees nothing.
	rows, err := a.Samples(0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("folded raw rows still served: %d", len(rows))
	}
	// Compact folds nothing more: it only counts its pass.
	a.Compact()
	if again := a.Stats(); again.Folded != st.Folded || again.Samples != st.Samples || again.Compactions != 1 {
		t.Errorf("stats after compact = %+v, want %+v with one compaction", again, st)
	}
}

// TestRetentionRefusesUncoveredFolds: without a completed rollup bucket
// run covering the aged blocks — rollups disabled — appends must not
// fold anything, no matter how old the raw blocks are.
func TestRetentionRefusesUncoveredFolds(t *testing.T) {
	a, _ := New(schema(1), Options{
		BlockSamples: 10,
		Rollups:      []int64{}, // explicitly disabled
		RawRetention: 10,
	})
	for i := 0; i < 100; i++ {
		if err := a.Append(row(int64(i)*100, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if folded := a.Stats().Folded; folded != 0 {
		t.Fatalf("appends folded %d rows with no rollup coverage", folded)
	}
	if a.Stats().Samples != 100 {
		t.Fatalf("raw rows lost: %d", a.Stats().Samples)
	}
}

// TestRetentionHoldsAtEveryAppend: with no Compact at all, after every
// append no retained block is both wholly older than the retention
// cutoff and covered by a completed bucket of every tier, every row
// ever accepted is retained, folded or evicted, and the folded history
// still answers exact rates through both tiers.
func TestRetentionHoldsAtEveryAppend(t *testing.T) {
	const (
		cadence   = int64(100)
		incr      = uint64(7)
		retention = 32 * cadence
		rows      = 20 * retention / cadence
	)
	v0 := ^uint64(0) - incr*300 // column 2 wraps inside the folded history
	a, _ := New(schema(2), Options{
		BlockSamples: 8,
		Rollups:      []int64{8 * cadence, 64 * cadence},
		RawRetention: retention,
	})
	for i := int64(0); i < rows; i++ {
		u := uint64(i)
		if err := a.Append(row(i*cadence, u*incr, v0+u*incr)); err != nil {
			t.Fatal(err)
		}
		s := a.snap.Load()
		covered := s.lastTS - retention
		for k := range s.tiers {
			if done := s.tiers[k].done; len(done) == 0 {
				covered = math.MinInt64
			} else {
				covered = min(covered, done[len(done)-1].LastTS)
			}
		}
		for _, b := range s.blocks {
			if b.LastTS <= covered {
				t.Fatalf("after row %d: block [%d, %d] is older than %d and covered, yet retained", i, b.FirstTS, b.LastTS, covered)
			}
		}
		if st := a.Stats(); st.Samples+st.Folded+st.Evicted != st.Appended {
			t.Fatalf("after row %d: %d samples + %d folded + %d evicted != %d appended", i, st.Samples, st.Folded, st.Evicted, st.Appended)
		}
	}
	st := a.Stats()
	first, _, _ := a.Span()
	const t1 = 8 * 64 * cadence // eight coarse buckets of folded history
	if st.Folded == 0 || st.Compactions != 0 || first <= t1 {
		t.Fatalf("stats %+v, raw from %d: the history up to %d was not folded", st, first, t1)
	}
	want := float64(uint64(t1/cadence)*incr) / (float64(t1) / 1e9)
	for _, res := range []Resolution{Resolution(8 * cadence), Resolution(64 * cadence)} {
		for pmid := uint32(1); pmid <= 2; pmid++ {
			if rate, err := rateAt(a, res, pmid, 0, t1); err != nil || rate != want {
				t.Errorf("tier %v pmid %d: rate over folded [0, %d) = %v, %v; want exactly %v", res, pmid, t1, rate, err, want)
			}
		}
	}
}

// TestRetiredBlockIsReleased: a lagging coarse tier retires minutes of
// blocks in one append; the first of them must become garbage then,
// not stay reachable through the block list's shared array.
func TestRetiredBlockIsReleased(t *testing.T) {
	const sec = int64(1_000_000_000)
	a, _ := New(schema(1), Options{
		BlockSamples: 8,
		Rollups:      []int64{10 * sec, 300 * sec},
		RawRetention: 60 * sec,
	})
	i := int64(0)
	for ; len(a.snap.Load().blocks) == 0; i++ {
		if err := a.Append(row(i*sec, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	released := make(chan struct{})
	firstTS := func() int64 { // keeps no pointer to the block on this stack
		b := a.snap.Load().blocks[0]
		runtime.SetFinalizer(b, func(*block) { close(released) })
		return b.FirstTS
	}()
	for ; ; i++ {
		if s := a.snap.Load(); len(s.blocks) > 0 && s.blocks[0].FirstTS != firstTS {
			break
		}
		if i > 3600 {
			t.Fatal("an hour of appends never retired the first block")
		}
		if err := a.Append(row(i*sec, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	a.Compact()
	defer runtime.KeepAlive(a) // only the block may become garbage, not the archive
	deadline := time.After(2 * time.Second)
	for {
		runtime.GC()
		select {
		case <-released:
			return
		case <-deadline:
			t.Fatalf("first block, retired by row %d, still reachable 2 s later", i)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestStartCompactor: the background compactor trims a cold block's
// decoded cache on its own and stops cleanly (idempotent stop).
func TestStartCompactor(t *testing.T) {
	a, _ := New(schema(1), Options{BlockSamples: 10})
	for i := 0; i < 200; i++ {
		if err := a.Append(row(int64(i)*100, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.All(); err != nil { // decodes and caches every block
		t.Fatal(err)
	}
	blocks := a.snap.Load().blocks
	cold, hot := blocks[0], blocks[len(blocks)-1]
	if cold.dec.Load() == nil {
		t.Fatal("All left the cold block undecoded")
	}
	stop := a.StartCompactor(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for cold.dec.Load() != nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if cold.dec.Load() != nil {
		t.Fatal("background compactor never trimmed the cold block's cache")
	}
	if hot.dec.Load() == nil {
		t.Error("compactor trimmed the newest block's cache")
	}
	if a.Stats().Compactions == 0 {
		t.Error("no compaction pass counted")
	}
}

// TestCompactorReaderStress is the -race proof that neither folding
// nor cache trimming blocks or tears readers. A deterministic appender
// (fixed cadence, fixed increment), folding as it goes, and an
// aggressive compactor race concurrent readers; the oracle: *any* consistent snapshot yields monotonic
// cadence-spaced Samples with value == 7·(ts/cadence), every
// whole-segment Rate is exactly incr/cadence, and a raw window's count,
// extrema and delta describe the same rows — no matter how the block
// list was republished mid-read.
func TestCompactorReaderStress(t *testing.T) {
	const (
		cadence = int64(1000)
		incr    = uint64(7)
		rows    = 30_000
	)
	a, _ := New(schema(1), Options{
		BlockSamples: 32,
		Rollups:      []int64{cadence * 8, cadence * 64},
		RawRetention: cadence * 2000,
		MaxBuckets:   1 << 20,
	})

	var wg sync.WaitGroup
	var appended atomic.Int64
	stopReaders := make(chan struct{})

	// Writer: deterministic series.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			if err := a.Append(row(int64(i)*cadence, uint64(i)*incr)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			appended.Store(int64(i + 1))
		}
	}()

	// Compactor: as aggressive as the scheduler allows.
	stopCompact := a.StartCompactor(50 * time.Microsecond)

	// Readers: verify the oracle against whatever snapshot they observe.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			probe := seed
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				n := appended.Load()
				if n < 10 {
					continue
				}
				probe = (probe*2862933555777941757 + 3037000493) & (1<<62 - 1)
				// A cadence-aligned window somewhere in the appended span.
				t1 := (probe % (n * cadence)) / cadence * cadence
				t0 := t1 - 500*cadence
				if t0 < 0 {
					t0 = 0
				}
				rowsGot, err := a.Samples(t0, t1)
				if err != nil {
					t.Errorf("Samples: %v", err)
					return
				}
				for i, s := range rowsGot {
					if s.Timestamp%cadence != 0 || s.Values[0] != uint64(s.Timestamp/cadence)*incr {
						t.Errorf("torn row %+v", s)
						return
					}
					if i > 0 && s.Timestamp != rowsGot[i-1].Timestamp+cadence {
						t.Errorf("gap in consistent snapshot: %d after %d", s.Timestamp, rowsGot[i-1].Timestamp)
						return
					}
				}
				// A raw window reads its count, extrema and delta off one
				// snapshot: on any single block list of this series a
				// cadence-aligned window's delta is one step per row, give
				// or take the step into t1, and its extrema span exactly
				// its rows. Two loads a fold apart would put a whole block
				// between the count and the delta.
				if t1 > t0 {
					w, err := a.WindowAt(ResRaw, 1, t0, t1)
					if err != nil {
						t.Errorf("WindowAt: %v", err)
						return
					}
					if w.Count > 0 && (math.Abs(w.Delta/float64(incr)-float64(w.Count)) > 1 ||
						w.Max-w.Min != uint64(w.Count-1)*incr) {
						t.Errorf("raw window [%d, %d) = %+v: count, extrema and delta disagree", t0, t1, w)
						return
					}
				}
				// Rate oracles. Each call loads its own snapshot, and a
				// fold may land between two loads, so the raw-path rate
				// over a window chosen from an older snapshot is either
				// the full-coverage value or a fold-truncated one — but
				// always an exact whole number of cadence steps. Any
				// torn or inconsistent block list would break that.
				if len(rowsGot) > 1 {
					lo, hi := rowsGot[0].Timestamp, rowsGot[len(rowsGot)-1].Timestamp
					wantAt := func(l, h int64) float64 {
						return float64(uint64((h-l)/cadence)*incr) / (float64(h-l) / 1e9)
					}
					if rate, err := rateAt(a, ResRaw, 1, lo, hi); err == nil && rate != wantAt(lo, hi) {
						steps := rate * (float64(hi-lo) / 1e9) / float64(incr)
						k := math.Round(steps)
						if math.Abs(steps-k) > 1e-6 || k < 0 || int64(k) > (hi-lo)/cadence {
							t.Errorf("raw rate over [%d, %d] = %v: not a whole number of steps (%v)", lo, hi, rate, steps)
							return
						}
					}
					// Rollup buckets are never evicted in this config, so
					// bucket-aligned rollup rates are exact uncondition-
					// ally, folding or not.
					bw := int64(cadence * 8)
					loA, hiA := (lo+bw-1)/bw*bw, hi/bw*bw
					if hiA > loA {
						if rate, err := rateAt(a, Resolution(bw), 1, loA, hiA); err != nil || rate != wantAt(loA, hiA) {
							t.Errorf("rollup rate over [%d, %d] = %v, %v; want exactly %v", loA, hiA, rate, err, wantAt(loA, hiA))
							return
						}
					}
					// Floor can legitimately miss if the fold passed hi
					// between loads; the raw span's first timestamp only
					// grows, so a miss with first still <= hi is a bug.
					if s, ok := a.Floor(hi); ok {
						if s.Values[0] != uint64(hi/cadence)*incr {
							t.Errorf("Floor(%d) = %+v", hi, s)
							return
						}
					} else if first, _, sok := a.Span(); sok && first <= hi {
						t.Errorf("Floor(%d) missed but raw span starts at %d", hi, first)
						return
					}
				}
			}
		}(int64(r + 1))
	}

	// Let the writer finish, then stop everyone.
	for appended.Load() < rows {
		time.Sleep(time.Millisecond)
	}
	close(stopReaders)
	stopCompact()
	wg.Wait()

	if a.Stats().Compactions == 0 {
		t.Fatal("compactor never ran during the stress")
	}
}
