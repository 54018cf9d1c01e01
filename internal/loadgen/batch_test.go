package loadgen

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"papimc/internal/pcp"
)

// batchCounter is a fake batching fetcher that records how work
// arrives: single fetches vs batch round trips, and the shape of each
// batch.
type batchCounter struct {
	singles atomic.Int64
	batches atomic.Int64
	sets    atomic.Int64

	mu        sync.Mutex
	lastShape []int // len of each set in the last batch
}

func (b *batchCounter) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	b.singles.Add(1)
	return b.answer(pmids), nil
}

func (b *batchCounter) FetchBatch(sets [][]uint32) ([]pcp.FetchResult, error) {
	b.batches.Add(1)
	b.sets.Add(int64(len(sets)))
	shape := make([]int, len(sets))
	out := make([]pcp.FetchResult, len(sets))
	for i, s := range sets {
		shape[i] = len(s)
		out[i] = b.answer(s)
	}
	b.mu.Lock()
	b.lastShape = shape
	b.mu.Unlock()
	return out, nil
}

func (b *batchCounter) answer(pmids []uint32) pcp.FetchResult {
	vals := make([]pcp.FetchValue, len(pmids))
	for i, id := range pmids {
		vals[i] = pcp.FetchValue{PMID: id, Status: pcp.StatusOK, Value: uint64(id)}
	}
	return pcp.FetchResult{Timestamp: 1, Values: vals}
}

// TestBatchAccounting: with Batch=B the generator issues one FetchBatch
// round trip per B sets, never single fetches, and the report counts
// fetched sets — Ops and throughput stay comparable across batch sizes.
func TestBatchAccounting(t *testing.T) {
	target := &batchCounter{}
	const batch, ops = 8, 64
	res, err := Run(SharedFactory(target), Options{
		Workers: 2,
		Ops:     ops,
		Batch:   batch,
		PMIDs:   []uint32{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if target.singles.Load() != 0 {
		t.Errorf("%d single fetches issued with Batch=%d, want 0", target.singles.Load(), batch)
	}
	wantSets := int64(2 * ops * batch) // Ops counts requests per worker; each carries Batch sets
	if got := target.sets.Load(); got != wantSets {
		t.Errorf("target saw %d sets, want %d", got, wantSets)
	}
	if target.batches.Load() != int64(2*ops) {
		t.Errorf("target saw %d batch round trips, want %d", target.batches.Load(), 2*ops)
	}
	if res.Ops != wantSets {
		t.Errorf("report Ops = %d, want %d (sets, not round trips)", res.Ops, wantSets)
	}
	target.mu.Lock()
	shape := target.lastShape
	target.mu.Unlock()
	if len(shape) != batch {
		t.Fatalf("last batch carried %d sets, want %d", len(shape), batch)
	}
	for _, n := range shape {
		if n != 3 {
			t.Fatalf("batch set shape %v, want every set = PMIDs", shape)
		}
	}
}

// TestBatchRequiresBatchFetcher: Batch > 1 with a plain Fetcher is a
// configuration error, reported before any load is generated.
func TestBatchRequiresBatchFetcher(t *testing.T) {
	plain := FetchFunc(func(pmids []uint32) (pcp.FetchResult, error) {
		return pcp.FetchResult{}, nil
	})
	_, err := Run(SharedFactory(plain), Options{
		Workers: 1,
		Ops:     1,
		Batch:   4,
		PMIDs:   []uint32{1},
	})
	if err == nil || !strings.Contains(err.Error(), "BatchFetcher") {
		t.Fatalf("err = %v, want a BatchFetcher requirement error", err)
	}
}

// TestPipelinedFactorySharing: the factory hands out at most conns
// connections round-robin, keeps them open until the LAST worker's
// cleanup, and is reusable afterwards — the contract Sweep depends on
// when it reuses one factory across load levels.
func TestPipelinedFactorySharing(t *testing.T) {
	d, addr := testDaemon(t)
	_ = d
	const conns, workers = 2, 5
	f := PipelinedFactory(addr, conns)

	fets := make([]Fetcher, workers)
	cleanups := make([]func() error, workers)
	for i := range fets {
		var err error
		fets[i], cleanups[i], err = f()
		if err != nil {
			t.Fatal(err)
		}
	}
	distinct := map[Fetcher]bool{}
	for _, fet := range fets {
		distinct[fet] = true
	}
	if len(distinct) != conns {
		t.Fatalf("%d workers got %d distinct connections, want %d", workers, len(distinct), conns)
	}

	// Early cleanups must not close the shared connections out from
	// under the remaining workers.
	for i := 0; i < workers-1; i++ {
		if err := cleanups[i](); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fets[workers-1].Fetch([]uint32{1}); err != nil {
		t.Fatalf("shared connection died before its last worker: %v", err)
	}
	if err := cleanups[workers-1](); err != nil {
		t.Fatal(err)
	}
	if _, err := fets[0].Fetch([]uint32{1}); err == nil {
		t.Fatal("connection still alive after the last cleanup")
	}

	// Reusable: the next acquisition dials fresh.
	fet, cleanup, err := f()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if _, err := fet.Fetch([]uint32{1}); err != nil {
		t.Fatalf("factory not reusable after full drain: %v", err)
	}
}

// TestBatchAgainstLiveDaemon: end to end through a real pipelined
// connection, Batch mode fetches real values and every set in the run
// is well-formed.
func TestBatchAgainstLiveDaemon(t *testing.T) {
	_, addr := testDaemon(t)
	res, err := Run(PipelinedFactory(addr, 2), Options{
		Workers: 4,
		Ops:     25,
		Batch:   4,
		PMIDs:   []uint32{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors against a healthy daemon", res.Errors)
	}
	if want := int64(4 * 25 * 4); res.Ops != want {
		t.Errorf("Ops = %d, want %d", res.Ops, want)
	}
}
