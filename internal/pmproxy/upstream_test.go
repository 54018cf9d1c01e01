package pmproxy

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"papimc/internal/pcp"
)

// okResult is a canned successful child answer.
var okResult = pcp.FetchResult{Timestamp: 7, Values: []pcp.FetchValue{{PMID: 1, Status: pcp.StatusOK, Value: 99}}}

func checkUpstreamLaws(t *testing.T, s UpstreamStats) {
	t.Helper()
	if s.Fetches != s.Successes+s.Failures {
		t.Errorf("edge accounting: Fetches=%d != Successes=%d + Failures=%d", s.Fetches, s.Successes, s.Failures)
	}
	if s.Errors != s.Retries+s.Failures {
		t.Errorf("round accounting: Errors=%d != Retries=%d + Failures=%d", s.Errors, s.Retries, s.Failures)
	}
	if s.HedgesWon > s.Hedges {
		t.Errorf("HedgesWon=%d > Hedges=%d", s.HedgesWon, s.Hedges)
	}
	if s.DeadlineMisses > s.Errors {
		t.Errorf("DeadlineMisses=%d > Errors=%d", s.DeadlineMisses, s.Errors)
	}
}

// TestUpstreamStatsExact mirrors the proxy's stats-conservation checks
// for the federation edge: scripted child behaviours must produce
// exactly the predicted counter values, not just satisfy inequalities.
func TestUpstreamStatsExact(t *testing.T) {
	t.Run("healthy", func(t *testing.T) {
		u := NewUpstream("root->z0", func([]uint32) (pcp.FetchResult, error) {
			return okResult, nil
		}, EdgePolicy{Deadline: 2 * time.Second, HedgeAfter: time.Second, Retries: 2})
		for i := 0; i < 5; i++ {
			if _, err := u.Fetch([]uint32{1}); err != nil {
				t.Fatal(err)
			}
		}
		want := UpstreamStats{Fetches: 5, Successes: 5}
		if got := u.Stats(); got != want {
			t.Errorf("stats: got %+v want %+v", got, want)
		}
		checkUpstreamLaws(t, u.Stats())
	})

	t.Run("always-error", func(t *testing.T) {
		childErr := errors.New("boom")
		u := NewUpstream("root->z1", func([]uint32) (pcp.FetchResult, error) {
			return pcp.FetchResult{}, childErr
		}, EdgePolicy{Deadline: 2 * time.Second, HedgeAfter: time.Second, Retries: 2})
		_, err := u.Fetch([]uint32{1})
		if !errors.Is(err, childErr) {
			t.Fatalf("error does not wrap the child's: %v", err)
		}
		want := UpstreamStats{Fetches: 1, Failures: 1, Errors: 3, Retries: 2}
		if got := u.Stats(); got != want {
			t.Errorf("stats: got %+v want %+v", got, want)
		}
		checkUpstreamLaws(t, u.Stats())
	})

	t.Run("deadline-miss", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		u := NewUpstream("z0->node3", func([]uint32) (pcp.FetchResult, error) {
			<-release // stalled child: never answers within the deadline
			return okResult, nil
		}, EdgePolicy{Deadline: 20 * time.Millisecond, Retries: 1})
		_, err := u.Fetch([]uint32{1})
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, ErrUpstreamDown) {
			t.Fatalf("deadline failure not typed: %v", err)
		}
		want := UpstreamStats{Fetches: 1, Failures: 1, Errors: 2, Retries: 1, DeadlineMisses: 2}
		if got := u.Stats(); got != want {
			t.Errorf("stats: got %+v want %+v", got, want)
		}
		checkUpstreamLaws(t, u.Stats())
	})

	t.Run("hedge-wins", func(t *testing.T) {
		var calls atomic.Int64
		primaryDone := make(chan struct{})
		u := NewUpstream("z0->node4", func([]uint32) (pcp.FetchResult, error) {
			if calls.Add(1) == 1 {
				<-primaryDone // slow primary; the hedge answers instantly
				return okResult, nil
			}
			return okResult, nil
		}, EdgePolicy{Deadline: 5 * time.Second, HedgeAfter: 5 * time.Millisecond, Retries: 1})
		res, err := u.Fetch([]uint32{1})
		close(primaryDone)
		if err != nil {
			t.Fatal(err)
		}
		if res.Values[0].Value != 99 {
			t.Errorf("wrong result: %+v", res)
		}
		want := UpstreamStats{Fetches: 1, Successes: 1, Hedges: 1, HedgesWon: 1}
		if got := u.Stats(); got != want {
			t.Errorf("stats: got %+v want %+v", got, want)
		}
		checkUpstreamLaws(t, u.Stats())
	})

	t.Run("partial-is-success", func(t *testing.T) {
		pe := &pcp.PartialError{Missing: []string{"node007"}}
		u := NewUpstream("root->z2", func([]uint32) (pcp.FetchResult, error) {
			return okResult, pe
		}, EdgePolicy{Retries: 3})
		res, err := u.Fetch([]uint32{1})
		var got *pcp.PartialError
		if !errors.As(err, &got) || got.Missing[0] != "node007" {
			t.Fatalf("partial error not passed through: %v", err)
		}
		if len(res.Values) != 1 {
			t.Errorf("partial result dropped: %+v", res)
		}
		// A partial answer is a success: no retries burned re-asking a
		// child that already answered as well as it can.
		want := UpstreamStats{Fetches: 1, Successes: 1}
		if s := u.Stats(); s != want {
			t.Errorf("stats: got %+v want %+v", s, want)
		}
	})
}

// TestUpstreamStatsConservationConcurrent drives one edge from many
// goroutines over a child that fails a deterministic subset of calls and
// asserts the conservation laws plus the exact success/failure split.
func TestUpstreamStatsConservationConcurrent(t *testing.T) {
	var n atomic.Int64
	u := NewUpstream("root->z0", func([]uint32) (pcp.FetchResult, error) {
		// Every 3rd call fails; with Retries=1 a fetch only fails when
		// both its rounds draw failing calls.
		if n.Add(1)%3 == 0 {
			return pcp.FetchResult{}, fmt.Errorf("transient")
		}
		return okResult, nil
	}, EdgePolicy{Retries: 1})

	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	var observedErrs atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := u.Fetch([]uint32{1}); err != nil {
					observedErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	s := u.Stats()
	if s.Fetches != goroutines*per {
		t.Errorf("Fetches=%d want %d", s.Fetches, goroutines*per)
	}
	if s.Failures != observedErrs.Load() {
		t.Errorf("Failures=%d but callers observed %d errors", s.Failures, observedErrs.Load())
	}
	checkUpstreamLaws(t, s)
}

// TestUpstreamUntimedRunsOnCaller: an edge with no Deadline and no
// HedgeAfter has no timer to race, so it calls the child on the
// caller's goroutine — the child sees the test's own frame on its
// stack — and keeps every counter law. A timed edge still abandons a
// child that never answers.
func TestUpstreamUntimedRunsOnCaller(t *testing.T) {
	var calls atomic.Int64
	onCaller := true
	u := NewUpstream("root->z0", func([]uint32) (pcp.FetchResult, error) {
		buf := make([]byte, 64<<10)
		// The test's own frame, not this closure's (…Caller.func1).
		if !strings.Contains(string(buf[:runtime.Stack(buf, false)]), ".TestUpstreamUntimedRunsOnCaller(") {
			onCaller = false
		}
		if calls.Add(1)%2 == 0 {
			return pcp.FetchResult{}, errors.New("transient")
		}
		return okResult, nil
	}, EdgePolicy{Retries: 1})
	for i := 0; i < 6; i++ {
		u.Fetch([]uint32{1})
	}
	if !onCaller {
		t.Error("an untimed edge ran its child off the calling goroutine")
	}
	s := u.Stats()
	if s.Fetches != 6 || s.Retries == 0 || s.Hedges != 0 || s.DeadlineMisses != 0 {
		t.Errorf("stats: %+v", s)
	}
	checkUpstreamLaws(t, s)

	release := make(chan struct{})
	defer close(release)
	timed := NewUpstream("root->z1", func([]uint32) (pcp.FetchResult, error) {
		<-release // never answers while the edge waits
		return okResult, nil
	}, EdgePolicy{Deadline: 10 * time.Millisecond})
	if _, err := timed.Fetch([]uint32{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("timed edge over a silent child: %v, want ErrDeadline", err)
	}
	checkUpstreamLaws(t, timed.Stats())
}
