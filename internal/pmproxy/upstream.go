package pmproxy

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"papimc/internal/pcp"
)

// ErrDeadline is the typed failure of a federation edge whose child did
// not answer within EdgePolicy.Deadline. It wraps ErrUpstreamDown so
// errors.Is(err, ErrUpstreamDown) holds for every edge failure.
var ErrDeadline = fmt.Errorf("%w: deadline exceeded", ErrUpstreamDown)

// EdgePolicy tunes one federation edge of the cluster tree: how long the
// parent waits for the child, when it hedges, and how often it retries.
type EdgePolicy struct {
	// Deadline bounds each attempt round (primary plus any hedge) by
	// wall-clock time; on expiry the round fails with ErrDeadline. Zero
	// means no deadline (the child's own timeouts are the only bound).
	Deadline time.Duration
	// HedgeAfter launches a second, hedged attempt if the primary has
	// not answered after this long — the standard tail-latency defense
	// against one slow child. The first answer wins; the loser is
	// discarded. Zero disables hedging.
	HedgeAfter time.Duration
	// Retries is how many fresh rounds are attempted after a failed one.
	Retries int
}

// UpstreamStats is one edge's counters, the per-edge observability of
// cluster health. Conservation laws (asserted by the exactness test and
// the chaos harness):
//
//	Fetches = Successes + Failures
//	Errors  = Retries + Failures
//	HedgesWon ≤ Hedges, DeadlineMisses ≤ Errors
type UpstreamStats struct {
	Fetches        int64 // fetches routed to this edge
	Successes      int64 // fetches answered (fully or partially)
	Failures       int64 // fetches failed after all retries
	Errors         int64 // attempt rounds that ended in error or deadline
	Retries        int64 // failed rounds that were retried
	Hedges         int64 // hedged attempts launched
	HedgesWon      int64 // rounds won by the hedge, not the primary
	DeadlineMisses int64 // rounds that hit the deadline with no answer
}

// Upstream is a federation client edge: it fetches from one child of the
// aggregation tree under an EdgePolicy and accounts for every attempt.
// It is safe for concurrent use. An untimed edge (no Deadline, no
// HedgeAfter) runs each attempt on the caller's goroutine; a timed edge
// runs attempts on their own goroutines so a stalled child never blocks
// the caller past the deadline (the abandoned attempt finishes in the
// background, bounded by the child's own timeout).
type Upstream struct {
	name   string
	fetch  func(pmids []uint32) (pcp.FetchResult, error)
	policy EdgePolicy

	fetches        atomic.Int64
	successes      atomic.Int64
	failures       atomic.Int64
	errors         atomic.Int64
	retries        atomic.Int64
	hedges         atomic.Int64
	hedgesWon      atomic.Int64
	deadlineMisses atomic.Int64
}

// NewUpstream builds an edge named name over the child's fetch function.
func NewUpstream(name string, fetch func(pmids []uint32) (pcp.FetchResult, error), policy EdgePolicy) *Upstream {
	return &Upstream{name: name, fetch: fetch, policy: policy}
}

// Name returns the edge's name (conventionally "parent->child").
func (u *Upstream) Name() string { return u.name }

// Stats returns a snapshot of the edge's counters.
func (u *Upstream) Stats() UpstreamStats {
	return UpstreamStats{
		Fetches:        u.fetches.Load(),
		Successes:      u.successes.Load(),
		Failures:       u.failures.Load(),
		Errors:         u.errors.Load(),
		Retries:        u.retries.Load(),
		Hedges:         u.hedges.Load(),
		HedgesWon:      u.hedgesWon.Load(),
		DeadlineMisses: u.deadlineMisses.Load(),
	}
}

// Fetch runs one fetch against the child with rounds of
// primary+hedge attempts until a round succeeds or retries are
// exhausted. A child's *pcp.PartialError counts as a success — the
// partial answer propagates up the tree, it does not trigger a retry.
func (u *Upstream) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	u.fetches.Add(1)
	for round := 0; ; round++ {
		res, err, hedged := u.round(pmids)
		if err == nil || isPartial(err) {
			u.successes.Add(1)
			if hedged {
				u.hedgesWon.Add(1)
			}
			return res, err
		}
		u.errors.Add(1)
		if round >= u.policy.Retries {
			u.failures.Add(1)
			return pcp.FetchResult{}, fmt.Errorf("pmproxy: upstream %s: %w", u.name, err)
		}
		u.retries.Add(1)
	}
}

// outcome is one attempt's result.
type outcome struct {
	res   pcp.FetchResult
	err   error
	hedge bool
}

// round runs one attempt round: the primary attempt, optionally a hedge,
// bounded by the deadline. It returns the first success (reporting
// whether the hedge won), or an error when every in-flight attempt has
// failed or the deadline fired. With no timer there is nothing to race
// the attempt against, so an untimed edge calls the child directly.
func (u *Upstream) round(pmids []uint32) (pcp.FetchResult, error, bool) {
	if u.policy.Deadline <= 0 && u.policy.HedgeAfter <= 0 {
		res, err := u.fetch(pmids)
		return res, err, false
	}
	// Buffered to the maximum attempts in flight, so an abandoned
	// attempt's late send never blocks its goroutine forever.
	ch := make(chan outcome, 2)
	launch := func(hedge bool) {
		go func() {
			res, err := u.fetch(pmids)
			ch <- outcome{res: res, err: err, hedge: hedge}
		}()
	}
	launch(false)

	var deadlineC, hedgeC <-chan time.Time
	if u.policy.Deadline > 0 {
		t := time.NewTimer(u.policy.Deadline)
		defer t.Stop()
		deadlineC = t.C
	}
	if u.policy.HedgeAfter > 0 {
		t := time.NewTimer(u.policy.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	pending := 1
	var lastErr error
	for {
		select {
		case o := <-ch:
			pending--
			if o.err == nil || isPartial(o.err) {
				return o.res, o.err, o.hedge
			}
			lastErr = o.err
			if pending == 0 {
				// Every launched attempt failed. A hedge that has not
				// launched yet would only repeat the same failure after a
				// sleep; the retry loop owns re-attempts.
				return pcp.FetchResult{}, lastErr, false
			}
		case <-hedgeC:
			hedgeC = nil
			u.hedges.Add(1)
			launch(true)
			pending++
		case <-deadlineC:
			u.deadlineMisses.Add(1)
			return pcp.FetchResult{}, ErrDeadline, false
		}
	}
}

// isPartial reports whether err is a *pcp.PartialError; only a call allocates its target.
func isPartial(err error) bool {
	var pe *pcp.PartialError
	return errors.As(err, &pe)
}
