package derived

import (
	"sync"
	"testing"

	"papimc/internal/metricql"
	"papimc/internal/pcp"
)

// tickSource answers every fetch with a new sample one second on: the
// counter climbs 500 a sample and the level stays at 3. The engine
// calls Fetch under its own lock.
type tickSource struct{ n uint64 }

func (s *tickSource) Names() ([]pcp.NameEntry, error) {
	return []pcp.NameEntry{{PMID: 1, Name: "a.counter"}, {PMID: 2, Name: "a.level"}}, nil
}

func (s *tickSource) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	s.n++
	res := pcp.FetchResult{Timestamp: int64(s.n) * 1_000_000_000}
	for _, id := range pmids {
		v := uint64(3)
		if id == 1 {
			v = 500 * s.n
		}
		res.Values = append(res.Values, pcp.FetchValue{PMID: id, Status: pcp.StatusOK, Value: v})
	}
	return res, nil
}

// TestConcurrentReadsShareTheEngine: counters of one component share
// its engine, whose values live in storage the next evaluation
// rewrites, so reads from several goroutines at once are serialized
// through the component. Under -race an unserialized read of a value
// another goroutine's evaluation rewrites is reported.
func TestConcurrentReadsShareTheEngine(t *testing.T) {
	c := New(metricql.NewEngine(&tickSource{}))
	const readers, reads = 4, 200
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		cs, err := c.NewCounters([]string{"rate(a.counter) + a.level", "a.level * 2"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.ReadAt(0); err != nil { // primes the rate
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				vals, err := cs.ReadAt(0)
				if err != nil {
					t.Error(err)
					return
				}
				if vals[0] != 503 || vals[1] != 6 {
					t.Errorf("read %d = %v, want [503 6]", i, vals)
					return
				}
			}
		}()
	}
	wg.Wait()
}
