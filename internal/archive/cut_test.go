package archive

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCutRacesFold: readers cut the oldest raw blocks — the ones the
// writer is about to fold away — at times of their own, so several
// cuts of one block race for its slot in the ring while the block
// leaves the snapshot. Whatever a reader finds there, a window and a
// floor must equal a row scan of the closed-form rows its snapshot
// retained, and so must a window on the rollup tier's grid beside it.
func TestCutRacesFold(t *testing.T) {
	const (
		cadence = int64(8) // as in TestRawWindowMatchesRowScan: every overlap fraction is exact
		incr    = uint64(40)
		bs      = 16
		span    = bs * cadence
		total   = 24_000
	)
	v0 := ^uint64(0) - incr*9_000 // column 0 wraps mid-run
	rowAt := func(i int64) Sample {
		u := uint64(i)
		return Sample{Timestamp: i * cadence, Values: []uint64{v0 + u*incr, u * incr * 2, 500 + 100*(u%7)}}
	}
	a, _ := New(schema(3), Options{
		BlockSamples: bs,
		Rollups:      []int64{span / 2},
		RawRetention: 24 * span,
		MaxBuckets:   1 << 20,
	})
	var appended, checked atomic.Int64
	var wg sync.WaitGroup
	ready := make(chan struct{}) // closed once the readers have rows to cut
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < total; i++ {
			if err := a.AppendSample(rowAt(i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			appended.Store(i + 1)
			if i+1 == 40*bs {
				close(ready)
			}
			// Folds have landed by then (the writer folds as it
			// appends); until an answer was checked, the writer yields
			// after every row, so that a scheduler running it alone
			// cannot outrun the readers.
			for i+1 >= 40*bs && checked.Load() == 0 && !t.Failed() {
				runtime.Gosched()
			}
		}
	}()
	stopCompact := a.StartCompactor(50 * time.Microsecond)

	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(probe int64) {
			defer wg.Done()
			select {
			case <-ready:
			case <-stop:
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				first, _, ok := a.Span()
				if !ok {
					continue
				}
				probe = (probe*2862933555777941757 + 3037000493) & (1<<62 - 1)
				// t0 somewhere in the two oldest blocks, t1 a few blocks on:
				// both edges split a block, each reader at its own row.
				t0 := first + 1 + probe%(2*span)
				t1 := t0 + 3*span + (probe>>20)%span
				c := int(probe>>40) % 3
				var rows []Sample
				for i := first / cadence; i <= t1/cadence+1; i++ {
					rows = append(rows, rowAt(i))
				}
				diff := windowDiff(a, rows, c, t0, t1)
				// Beside it, a window on the tier's grid, whose interior the
				// tier's buckets answer.
				g0 := t0 - t0%(span/2) + span/2
				grid := windowDiff(a, rows, c, g0, g0+2*span)
				floor, floorOK := a.Floor(t0)
				if after, _, _ := a.Span(); after != first {
					continue // a fold landed in between: which rows were read is not known
				}
				if diff != "" {
					t.Errorf("raw from %d, %s", first, diff)
					return
				}
				if grid != "" {
					t.Errorf("raw from %d, on the grid, %s", first, grid)
					return
				}
				if want := rowAt(t0 / cadence); !floorOK || floor.Timestamp != want.Timestamp || floor.Values[c] != want.Values[c] {
					t.Errorf("raw from %d: Floor(%d) = %+v, %v; want %+v", first, t0, floor, floorOK, want)
					return
				}
				checked.Add(1)
			}
		}(int64(r + 1))
	}
	for appended.Load() < total && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	stopCompact()
	wg.Wait()
	st := a.Stats()
	if st.Folded == 0 || checked.Load() == 0 {
		t.Fatalf("%d rows folded, %d answers checked: the race was not exercised", st.Folded, checked.Load())
	}
	t.Logf("%d answers checked against the row scan while %d rows folded; %d cuts parsed", checked.Load(), st.Folded, a.cutNext.Load())
}

// TestCutRingIsTheBound: cutting every block of a raw tier longer than
// the ring leaves exactly maxCuts cuts cached, the newest ones, and a
// block whose cut was overwritten is parsed again to the same answer.
func TestCutRingIsTheBound(t *testing.T) {
	const cadence, blocksWanted = int64(100), maxCuts + 200
	a, _ := New(schema(3), Options{BlockSamples: 4, Rollups: []int64{}})
	fillArchive(t, a, 4*blocksWanted+1, cadence, 400)
	blocks := a.snap.Load().blocks
	rows, _ := a.All()
	check := func(b *block) {
		t.Helper()
		t0, t1 := b.FirstTS+cadence/2, b.LastTS+cadence // t0 splits b; t1 is the next block's first row
		if diff := windowDiff(a, rows, 1, t0, t1); diff != "" {
			t.Fatal(diff)
		}
	}
	for i, b := range blocks {
		check(b)
		if got, want := cachedCuts(a), min(i+1, maxCuts); got != want {
			t.Fatalf("after cutting %d blocks the ring holds %d cuts, want %d", i+1, got, want)
		}
	}
	parses := a.cutNext.Load()
	check(blocks[len(blocks)-1]) // among the newest maxCuts: found
	if a.cutNext.Load() != parses {
		t.Errorf("the newest block's cut was parsed again")
	}
	check(blocks[0]) // overwritten long ago: parsed again, same answer
	if a.cutNext.Load() != parses+1 || cachedCuts(a) != maxCuts {
		t.Errorf("re-reading an overwritten cut: %d parses, %d cuts cached; want one parse and %d cuts",
			a.cutNext.Load()-parses, cachedCuts(a), maxCuts)
	}
}
