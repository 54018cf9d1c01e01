package archive

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"papimc/internal/simtime"
)

// planArchive is the archive plan reuse is checked on: rows every 10 ns
// from -5000 on, 16-row blocks, tiers of 100 and 1000 ns, and no rows
// in [2000, 3500), a gap of whole buckets in both tiers that sends the
// tiers' arithmetic lookup to its fallback. Column 0 climbs 2^56 a row
// from just below 2^64, so it wraps every 256 rows: twice inside a
// 6 µs window. Column 1 is quadratic and column 2 falls every seventh
// row.
func planArchive(t testing.TB) *Archive {
	a, err := New(schema(4), Options{BlockSamples: 16, Rollups: []int64{100, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1500; i++ {
		if ts := -5000 + 10*i; ts < 2000 || ts >= 3500 {
			if err := appendPlanRow(a, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// appendPlanRow appends planArchive's row i.
func appendPlanRow(a *Archive, i int64) error {
	u := uint64(i)
	return a.AppendSample(Sample{Timestamp: -5000 + 10*i, Values: []uint64{^uint64(0) - 1000 + u<<56, u * u, 500 + 100*(u%7), 3 * u}})
}

// planWindows are windows on and off the tiers' grids, inside one
// block, around the gap, into the tail and before the first row, for an
// archive whose newest row is stamped last.
func planWindows(last int64) [][2]int64 {
	return [][2]int64{
		// On a grid, off it, and inside one block.
		{-3000, -1000}, {0, 1000}, {1000, 5000}, {-4400, -4100},
		{-2345, 1234}, {-4444, -4321}, {-4444, -4100}, {1777, 3777}, {1950, 2290}, {3390, 3750},
		{-4995, -4905},
		// Into the tail, and from before the first row.
		{last - 95, last + 50}, {last - 300, last + 1}, {last - 2500, last + 5000},
		{-9000, -5000}, {-9000, -4000}, {-10000, 20000},
	}
}

var planFns = []string{"avg_over", "min_over", "max_over", "rate_over"}

// wantEval is what EvalWindow must answer: WindowAt at the resolution
// SelectResolution picks, or the pin, read as fn.
func wantEval(a *Archive, pin Resolution, fn string, pmid uint32, t0, t1 int64) (float64, bool, error) {
	agg, err := a.WindowAt(max(a.SelectResolution(t0, t1), pin), pmid, t0, t1)
	switch {
	case errors.Is(err, ErrNoTier):
		return 0, false, nil
	case err != nil:
		return 0, false, err
	case agg.Count == 0:
		return 0, false, nil
	}
	switch fn {
	case "avg_over":
		return agg.Sum / float64(agg.Count), true, nil
	case "min_over":
		return float64(agg.Min), true, nil
	case "max_over":
		return float64(agg.Max), true, nil
	}
	return agg.Delta / agg.Seconds, true, nil
}

type planAsk struct {
	fn     string
	pmid   uint32
	t0, t1 int64
}

// planAsks is every function and PMID over every window, PMIDs
// innermost as a selector asks for them, with one PMID outside the
// schema.
func planAsks(windows [][2]int64) (asks []planAsk) {
	for _, w := range windows {
		for _, fn := range planFns {
			for pmid := uint32(1); pmid <= 5; pmid++ {
				asks = append(asks, planAsk{fn, pmid, w[0], w[1]})
			}
		}
	}
	return asks
}

// evalDiff compares one EvalWindow with wantEval, bit for bit.
func evalDiff(a *Archive, r *Replay, q planAsk) string {
	got, gotOK, gotErr := r.EvalWindow(q.fn, q.pmid, q.t0, q.t1)
	want, wantOK, wantErr := wantEval(a, r.res, q.fn, q.pmid, q.t0, q.t1)
	if math.Float64bits(got) == math.Float64bits(want) && gotOK == wantOK && (gotErr == nil) == (wantErr == nil) {
		return ""
	}
	return fmt.Sprintf("pin %v, %s(pmid %d) over [%d, %d): EvalWindow = %v, %v, %v; WindowAt gives %v, %v, %v",
		r.res, q.fn, q.pmid, q.t0, q.t1, got, gotOK, gotErr, want, wantOK, wantErr)
}

// TestReplayPlanReuseMatchesWindowAt: a Replay folds the next PMID over
// the plan of the last window while the snapshot it was planned on is
// still the published one, and that must not be observable: every
// answer, asked in order or shuffled, with or without an append between
// two PMIDs, equals a fresh WindowAt bit for bit.
func TestReplayPlanReuseMatchesWindowAt(t *testing.T) {
	for _, pin := range []Resolution{ResRaw, 100, 1000} {
		a := planArchive(t)
		_, last, _ := a.Span()
		r := NewReplayAt(a, simtime.NewClock(), pin)
		asks := planAsks(planWindows(last))
		for _, q := range asks {
			if diff := evalDiff(a, r, q); diff != "" {
				t.Error("in order, " + diff)
			}
		}
		rand.New(rand.NewSource(int64(pin))).Shuffle(len(asks), func(i, j int) { asks[i], asks[j] = asks[j], asks[i] })
		for _, q := range asks {
			if diff := evalDiff(a, r, q); diff != "" {
				t.Error("shuffled, " + diff)
			}
		}
	}

	// A writer goroutine appends a row between two PMIDs, so the
	// snapshot changes inside a selector's vector.
	a := planArchive(t)
	_, last, _ := a.Span()
	r := NewReplay(a, simtime.NewClock())
	step, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1500); ; i++ {
			if _, ok := <-step; !ok {
				return
			}
			if err := appendPlanRow(a, i); err != nil {
				t.Error(err)
			}
			done <- struct{}{}
		}
	}()
	for k, q := range planAsks(planWindows(last)) {
		if k%3 == 0 {
			step <- struct{}{}
			<-done
		}
		if diff := evalDiff(a, r, q); diff != "" {
			t.Error("appending, " + diff)
		}
	}
	close(step)
	<-done
}

// TestReplayConcurrentEvalWindow: goroutines sharing one Replay, beside
// a writer, read the history the writer no longer changes and must each
// get what WindowAt gave before the writer started.
func TestReplayConcurrentEvalWindow(t *testing.T) {
	a := planArchive(t)
	_, last, _ := a.Span()
	var asks []planAsk
	for _, q := range planAsks(planWindows(last)) {
		if q.t1 < last-1000 {
			asks = append(asks, q)
		}
	}
	want := make([]float64, len(asks))
	for k, q := range asks {
		want[k], _, _ = wantEval(a, ResRaw, q.fn, q.pmid, q.t0, q.t1)
	}
	r := NewReplay(a, simtime.NewClock())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // 20k rows at most: nothing in the window's history is retired
		defer wg.Done()
		for i := int64(1500); i < 21500; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := appendPlanRow(a, i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for pass := 0; pass < 20; pass++ {
				for k := range asks {
					k := (k + g*7) % len(asks)
					q := asks[k]
					if got, _, _ := r.EvalWindow(q.fn, q.pmid, q.t0, q.t1); math.Float64bits(got) != math.Float64bits(want[k]) {
						t.Errorf("reader %d: %s(pmid %d) over [%d, %d) = %v, want %v", g, q.fn, q.pmid, q.t0, q.t1, got, want[k])
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestReplayEvalWindowAllocs: a warm EvalWindow allocates nothing,
// whether it folds over the plan it kept or plans a new window.
func TestReplayEvalWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	a := planArchive(t)
	r := NewReplay(a, simtime.NewClock())
	vector := func(t0, t1 int64) {
		for pmid := uint32(1); pmid <= 4; pmid++ {
			if _, ok, err := r.EvalWindow("rate_over", pmid, t0, t1); !ok || err != nil {
				t.Fatalf("rate_over(pmid %d) over [%d, %d): ok %v, %v", pmid, t0, t1, ok, err)
			}
		}
	}
	// A raw window with three cuts (blocks are 160 ns, and their edges
	// do not share one), a raw window on the 100 ns grid and a rollup
	// window; the first calls parse the cuts and allocate the plan.
	windows := [][2]int64{{-3245, -2915}, {0, 300}, {-3000, -1000}}
	for _, w := range windows {
		vector(w[0], w[1])
	}
	if cuts := a.cutNext.Load(); cuts != 3 {
		t.Fatalf("the windows cut %d blocks, want 3", cuts)
	}
	if n := testing.AllocsPerRun(100, func() { vector(windows[0][0], windows[0][1]) }); n != 0 {
		t.Errorf("EvalWindow over the plan it kept allocates %v times a vector, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, w := range windows {
			vector(w[0], w[1])
		}
	}); n != 0 {
		t.Errorf("EvalWindow planning a new window allocates %v times a vector, want 0", n)
	}
}

// TestTierSearchMatchesBinarySearch: the arithmetic tier lookup returns
// the index a binary search does for every bound around every bucket of
// a tier with and without gaps, and at the ends of int64, both for
// "Start >= x" and for "Start+res > x".
func TestTierSearchMatchesBinarySearch(t *testing.T) {
	const big = int64(1) << 62
	tiers := []struct {
		name   string
		res    int64
		starts []int64
		sealed bool // the last start is the in-progress bucket
	}{
		{"no gaps", 10, []int64{-30, -20, -10, 0, 10, 20}, false},
		{"gaps", 10, []int64{-50, -40, 0, 10, 60, 70, 80, 200}, true},
		{"a gap before the in-progress bucket", 10, []int64{-10, 0, 10, 90}, true},
		{"one bucket", 10, []int64{40}, false},
		{"empty", 10, nil, false},
		{"at the ends of int64", big, []int64{math.MinInt64, -big, 0, big}, false},
		{"a gap at the ends of int64", big, []int64{math.MinInt64, big}, true},
	}
	for _, tc := range tiers {
		tr := &tierSnap{res: tc.res}
		for _, s := range tc.starts {
			tr.done = append(tr.done, Bucket{Start: s})
		}
		if tc.sealed {
			tr.sealed = &tr.done[len(tr.done)-1]
			tr.done = tr.done[:len(tr.done)-1]
		}
		xs := []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + tc.res - 1, math.MinInt64 + tc.res, -1, 0, 1,
			math.MaxInt64 - tc.res, math.MaxInt64 - tc.res + 1, math.MaxInt64 - 1, math.MaxInt64}
		for _, s := range tc.starts {
			for _, d := range []int64{-tc.res - 1, -tc.res, -tc.res + 1, -tc.res / 2, -1, 0, 1, tc.res / 2, tc.res - 1, tc.res, tc.res + 1} {
				if x := s + d; (d < 0) == (x < s) { // no overflow
					xs = append(xs, x)
				}
			}
		}
		n := tr.count()
		for _, x := range xs {
			want := sort.Search(n, func(i int) bool { return tr.at(i).Start >= x })
			if got := tr.search(x, 1); got != want {
				t.Errorf("%s: first Start >= %d at %d, want %d", tc.name, x, got, want)
			}
			want = sort.Search(n, func(i int) bool {
				st := tr.at(i).Start
				return st > x || uint64(x-st) < uint64(tc.res)
			})
			if got := tr.search(x, tc.res); got != want {
				t.Errorf("%s: first bucket ending past %d at %d, want %d", tc.name, x, got, want)
			}
		}
	}
}
