package metricql

import (
	"fmt"

	"papimc/internal/simtime"
)

// Rule is one pmie-style threshold predicate: fire the callback when
// Expr Op Threshold holds for Hold consecutive samples, then hold off.
type Rule struct {
	Name      string
	Expr      string // scalar metricql expression
	Op        string // ">", ">=", "<", "<="
	Threshold float64
	// Hold is how many consecutive breaching samples are required
	// before firing (default 1): transient single-sample spikes on a
	// noisy counter don't alert.
	Hold int
	// Holdoff suppresses re-firing for this long after a firing
	// (0 = no suppression beyond the hysteresis below).
	Holdoff simtime.Duration
}

// Firing describes one rule activation delivered to the callback.
type Firing struct {
	Rule      Rule
	Timestamp int64 // daemon timestamp (ns) of the breaching sample
	Value     float64
}

type ruleState struct {
	rule     Rule
	run      int   // consecutive breaching samples
	armed    bool  // hysteresis: must observe a clear sample to re-arm
	lastFire int64 // timestamp of last firing
	hasFired bool
}

// Ruleset evaluates a set of rules on the sampling cadence: each Step
// performs one coalesced EvalAll for every rule expression and applies
// hold / holdoff / hysteresis before invoking the callback. Like pmie,
// it is a consumer of the metric stream, not part of it — it works
// identically over a live daemon, a proxy, or an archive replay.
type Ruleset struct {
	eng    *Engine
	onFire func(Firing)
	rules  []*ruleState
	qs     []*Query // each rule's query, in rules order: one EvalAll a step
	lastTS int64
	hasTS  bool
}

// NewRuleset creates an empty ruleset over e, delivering firings to
// onFire (which must be non-nil).
func NewRuleset(e *Engine, onFire func(Firing)) *Ruleset {
	return &Ruleset{eng: e, onFire: onFire}
}

// Add validates and binds one rule. The expression must evaluate to a
// scalar (aggregate vectors with sum/avg/... first).
func (rs *Ruleset) Add(r Rule) error {
	switch r.Op {
	case ">", ">=", "<", "<=":
	default:
		return fmt.Errorf("metricql: rule %q: bad comparison %q", r.Name, r.Op)
	}
	if r.Hold <= 0 {
		r.Hold = 1
	}
	q, err := rs.eng.Query(r.Expr)
	if err != nil {
		return fmt.Errorf("metricql: rule %q: %w", r.Name, err)
	}
	if w, err := staticWidth(q.root); err != nil {
		return fmt.Errorf("metricql: rule %q: %w", r.Name, err)
	} else if w > 1 {
		return fmt.Errorf("metricql: rule %q: expression is a vector of %d; aggregate it to a scalar", r.Name, w)
	}
	rs.rules = append(rs.rules, &ruleState{rule: r, armed: true})
	rs.qs = append(rs.qs, q)
	return nil
}

// breaches reports whether v is on the firing side of the threshold.
func (st *ruleState) breaches(v float64) bool {
	t := st.rule.Threshold
	switch st.rule.Op {
	case ">":
		return v > t
	case ">=":
		return v >= t
	case "<":
		return v < t
	case "<=":
		return v <= t
	}
	return false
}

// Step evaluates every rule against the current fetch (one coalesced
// round trip) and fires callbacks. A Step within the same daemon
// sampling interval as the previous one is a no-op: rule state advances
// on the daemon's cadence, not the caller's.
func (rs *Ruleset) Step() error {
	if len(rs.rules) == 0 {
		return nil
	}
	vals, err := rs.eng.EvalAll(rs.qs...)
	if err != nil {
		return err
	}
	ts, _ := rs.eng.LastTimestamp()
	if rs.hasTS && ts == rs.lastTS {
		return nil
	}
	rs.lastTS, rs.hasTS = ts, true
	for i, st := range rs.rules {
		v, err := vals[i].Scalar()
		if err != nil {
			return fmt.Errorf("metricql: rule %q: %w", st.rule.Name, err)
		}
		if !st.breaches(v) {
			st.run = 0
			st.armed = true
			continue
		}
		st.run++
		if st.run < st.rule.Hold || !st.armed {
			continue
		}
		if st.hasFired && st.rule.Holdoff > 0 && simtime.Duration(ts-st.lastFire) < st.rule.Holdoff {
			continue
		}
		st.armed = false // re-arm only after a clear sample
		st.lastFire = ts
		st.hasFired = true
		rs.onFire(Firing{Rule: st.rule, Timestamp: ts, Value: v})
	}
	return nil
}
