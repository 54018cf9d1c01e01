package pcp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papimc/internal/simtime"
)

// tsMetric returns a metric whose value is the sample time itself, so a
// fetch result is self-checking: every OK value must equal the result's
// timestamp, or the fetch observed a torn snapshot.
func tsMetric(name string) Metric {
	return Metric{Name: name, Read: func(t simtime.Time) (uint64, error) { return uint64(t), nil }}
}

// TestSnapshotConsistencyUnderRegister is the -race stress gate for the
// lock-free serving path: fetchers hammer FetchInto while Register grows
// the namespace and the clock advances concurrently. Every fetch must
// observe one coherent snapshot:
//
//   - PMIDs echo the request, in order;
//   - every OK value equals the result timestamp (all values sampled at
//     one time — never a mix of two samples);
//   - timestamps are monotone per goroutine;
//   - the visible namespace only grows: once a PMID resolves, it never
//     reverts to StatusNoSuchPMID.
func TestSnapshotConsistencyUnderRegister(t *testing.T) {
	clock := simtime.NewClock()
	const baseMetrics = 8
	const lateMetrics = 40
	var ms []Metric
	for i := 0; i < baseMetrics; i++ {
		ms = append(ms, tsMetric(fmt.Sprintf("race.metric.%02d", i)))
	}
	d, err := NewDaemon(clock, simtime.Millisecond, ms)
	if err != nil {
		t.Fatal(err)
	}

	const fetchers = 8
	const iters = 300
	stop := make(chan struct{})
	var aux sync.WaitGroup

	aux.Add(1)
	go func() { // concurrent time source
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(200 * simtime.Microsecond)
			}
		}
	}()
	aux.Add(1)
	go func() { // concurrent namespace growth
		defer aux.Done()
		for i := 0; i < lateMetrics; i++ {
			if err := d.Register(tsMetric(fmt.Sprintf("race.late.%02d", i))); err != nil {
				t.Errorf("register %d: %v", i, err)
				return
			}
		}
	}()

	allPMIDs := make([]uint32, baseMetrics+lateMetrics)
	for i := range allPMIDs {
		allPMIDs[i] = uint32(i + 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < fetchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var vals []FetchValue
			var lastTS int64 = -1
			resolved := make([]bool, len(allPMIDs))
			for i := 0; i < iters; i++ {
				res := d.FetchInto(allPMIDs, vals[:0])
				vals = res.Values
				if len(res.Values) != len(allPMIDs) {
					t.Errorf("fetch %d: %d values, want %d", i, len(res.Values), len(allPMIDs))
					return
				}
				if res.Timestamp < lastTS {
					t.Errorf("timestamp went backwards: %d -> %d", lastTS, res.Timestamp)
					return
				}
				lastTS = res.Timestamp
				for j, v := range res.Values {
					if v.PMID != allPMIDs[j] {
						t.Errorf("fetch %d: value %d has PMID %d, want %d", i, j, v.PMID, allPMIDs[j])
						return
					}
					switch v.Status {
					case StatusOK:
						resolved[j] = true
						if v.Value != uint64(res.Timestamp) {
							t.Errorf("torn snapshot: pmid %d value %d != timestamp %d", v.PMID, v.Value, res.Timestamp)
							return
						}
					case StatusNoSuchPMID:
						if resolved[j] {
							t.Errorf("pmid %d reverted to NoSuchPMID after resolving", v.PMID)
							return
						}
					default:
						t.Errorf("pmid %d status %d", v.PMID, v.Status)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	// After the dust settles the whole namespace is fetchable at one
	// coherent timestamp.
	clock.Advance(2 * simtime.Millisecond)
	res := d.Fetch(allPMIDs)
	for _, v := range res.Values {
		if v.Status != StatusOK || v.Value != uint64(res.Timestamp) {
			t.Errorf("final fetch: pmid %d status %d value %d (timestamp %d)", v.PMID, v.Status, v.Value, res.Timestamp)
		}
	}
}

// TestFetchDuringResampleIsFresh pins the freshness contract when fetches
// of one daemon overlap, as the two attempts of a hedged edge do: a fetch
// that finds the clock past the interval while another goroutine is
// already resampling must be answered from that resample, not from the
// snapshot it replaces. The gated metric holds the first fetch inside
// resample; the second is issued meanwhile, and the gate opens on a
// timer because a correct second fetch cannot return before it does.
func TestFetchDuringResampleIsFresh(t *testing.T) {
	clock := simtime.NewClock()
	var armed atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	d, err := NewDaemon(clock, simtime.Millisecond, []Metric{{Name: "gated", Read: func(t simtime.Time) (uint64, error) {
		if armed.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		return uint64(t), nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	old := d.Fetch([]uint32{1}).Timestamp // publishes the first snapshot
	clock.Advance(simtime.Millisecond + 1)
	armed.Store(true)
	first := make(chan FetchResult, 1)
	go func() { first <- d.Fetch([]uint32{1}) }()
	<-entered // the first fetch is inside resample

	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	second := d.Fetch([]uint32{1})
	if second.Timestamp == old {
		t.Errorf("fetch during a resample returned the replaced snapshot (ts=%d) a full interval after it was taken", old)
	}
	if got := <-first; got.Timestamp != second.Timestamp {
		t.Errorf("overlapping fetches answered from different instants: %d and %d", got.Timestamp, second.Timestamp)
	}
}

// TestFetchIntoDoesNotAllocate guards the serving hot path: with a warm
// reused buffer and a fresh snapshot, an in-process fetch is
// allocation-free.
func TestFetchIntoDoesNotAllocate(t *testing.T) {
	clock := simtime.NewClock()
	var ms []Metric
	for i := 0; i < 16; i++ {
		ms = append(ms, tsMetric(fmt.Sprintf("alloc.metric.%02d", i)))
	}
	d, err := NewDaemon(clock, 10*simtime.Millisecond, ms)
	if err != nil {
		t.Fatal(err)
	}
	pmids := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	var vals []FetchValue
	res := d.FetchInto(pmids, vals[:0])
	vals = res.Values
	if got := testing.AllocsPerRun(100, func() {
		res := d.FetchInto(pmids, vals[:0])
		vals = res.Values
	}); got != 0 {
		t.Errorf("FetchInto allocates %.1f objects per run, want 0", got)
	}
}
