package archive

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCompactFoldsAgedRaw: blocks older than RawRetention fold out of
// the raw tier once every rollup tier covers them; their history stays
// queryable through the rollups; newer raw blocks survive.
func TestCompactFoldsAgedRaw(t *testing.T) {
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
	before := a.Stats()
	folded := a.Compact()
	if folded == 0 {
		t.Fatal("Compact folded nothing")
	}
	st := a.Stats()
	if st.Folded != folded || st.Compactions != 1 {
		t.Errorf("stats after compact = %+v", st)
	}
	if st.Samples != before.Samples-folded {
		t.Errorf("samples %d, want %d - %d", st.Samples, before.Samples, folded)
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
	// Idempotent without new appends.
	if again := a.Compact(); again != 0 {
		t.Errorf("second compact folded %d more", again)
	}
}

// TestCompactRefusesUncoveredFolds: without a completed rollup bucket
// run covering the aged blocks — rollups disabled — Compact must not
// fold anything, no matter how old the raw blocks are.
func TestCompactRefusesUncoveredFolds(t *testing.T) {
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
	if folded := a.Compact(); folded != 0 {
		t.Fatalf("Compact folded %d rows with no rollup coverage", folded)
	}
	if a.Len() != 100 {
		t.Fatalf("raw rows lost: %d", a.Len())
	}
}

// TestStartCompactor: the background compactor folds on its own and
// stops cleanly (idempotent stop).
func TestStartCompactor(t *testing.T) {
	a, _ := New(schema(1), Options{
		BlockSamples: 10,
		Rollups:      []int64{1000},
		RawRetention: 2000,
	})
	for i := 0; i < 200; i++ {
		if err := a.Append(row(int64(i)*100, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	stop := a.StartCompactor(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Folded == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if a.Stats().Folded == 0 {
		t.Fatal("background compactor never folded")
	}
}

// TestCompactorReaderStress is the -race proof that compaction never
// blocks or tears readers. A deterministic appender (fixed cadence,
// fixed increment) races an aggressive compactor against concurrent
// readers; the oracle: *any* consistent snapshot yields monotonic
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
					if rate, err := a.Rate(1, lo, hi); err == nil && rate != wantAt(lo, hi) {
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
