package metricql

import (
	"errors"
	"fmt"
	"math"
	"path"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"papimc/internal/pcp"
)

// Source is what the engine needs from a metric provider. It is a
// structural subset of pcpcomp.Source (Lookup is not needed: the engine
// resolves names from the full namespace listing so globs can expand).
// pcp.Client, archive.Recorder, and archive.Replay all satisfy it.
type Source interface {
	Names() ([]pcp.NameEntry, error)
	Fetch(pmids []uint32) (pcp.FetchResult, error)
}

// Value is an evaluation result: a scalar (Names == nil, Vals[0]) or a
// vector with one element per expanded metric instance.
type Value struct {
	Names []string // nil for a scalar
	Vals  []float64
}

// Scalar returns the value as a single float64. Vectors of width one
// collapse; wider vectors are an error.
func (v Value) Scalar() (float64, error) {
	if len(v.Vals) == 1 {
		return v.Vals[0], nil
	}
	return 0, fmt.Errorf("metricql: expected scalar, got vector of %d", len(v.Vals))
}

// selection is one expanded metric instance of a pattern.
type selection struct {
	name string // display name (alias if matched through one)
	pmid uint32
}

// counterState tracks the last two observed samples of one PMID, the
// substrate for rate() and delta().
type counterState struct {
	prev, cur     uint64
	prevTS, curTS int64
	seen          int // distinct timestamps observed
}

// history is a per-node ring of (timestamp, vector) samples for the
// windowed functions.
type history struct {
	ts   []int64
	vals [][]float64
}

// Engine evaluates parsed expressions against one Source. It owns the
// counter state (previous samples per PMID), an alias table, and a
// per-timestamp memoization cache keyed by canonical subexpression so
// shared subtrees across queries cost one computation per fetch.
type Engine struct {
	mu      sync.Mutex
	src     Source
	wp      WindowPlanner     // non-nil if src can answer windows itself
	aliases map[string]string // alias -> raw metric name
	byName  map[string]uint32 // raw metric name -> pmid (namespace cache)
	state   map[uint32]*counterState
	hists   map[string]*history // canonical key -> shared window ring
	memo    map[string]Value
	qs      []*Query          // the query set ids was built from
	ids     []uint32          // sorted PMIDs of qs, rebuilt only when qs changes
	byID    map[uint32]uint64 // the last fetch's values, reused across fetches
	down    map[uint32]bool   // PMIDs whose node was down on the last fetch
	downKey string            // canonical form of down, the memo invalidator
	lastTS  int64
	hasTS   bool
}

// WindowPlanner is implemented by sources that can answer a windowed
// function over the half-open window [t0, t1) directly — an archive
// replay reads its rollup tiers instead of having the engine
// ring-buffer raw samples. A sample stamped t1, the step being
// evaluated, is not part of the window. fn is the metricql function
// name ("avg_over", "min_over", "max_over", "rate_over"). ok=false
// means this window cannot be pushed down (the engine falls back to
// its sample ring); an error aborts the evaluation. Pushed-down
// windows aggregate every archived sample in the window, which matches
// the ring's sample count whenever the engine steps at the recording
// cadence (evalWindow) and is strictly more accurate when it steps
// coarser.
type WindowPlanner interface {
	EvalWindow(fn string, pmid uint32, t0, t1 int64) (val float64, ok bool, err error)
}

// NewEngine creates an engine over src. The namespace is listed lazily
// on first Query and refreshed once on a lookup miss.
func NewEngine(src Source) *Engine {
	wp, _ := src.(WindowPlanner)
	return &Engine{
		src:     src,
		wp:      wp,
		aliases: make(map[string]string),
		state:   make(map[uint32]*counterState),
		hists:   make(map[string]*history),
		memo:    make(map[string]Value),
		byID:    make(map[uint32]uint64),
		down:    make(map[uint32]bool),
	}
}

// AliasAll registers a batch of aliases: each key names the raw metric
// it maps to. Aliases participate in glob expansion alongside raw names.
func (e *Engine) AliasAll(m map[string]string) {
	e.mu.Lock()
	for k, v := range m {
		e.aliases[k] = v
	}
	e.mu.Unlock()
}

// nestAliasRE matches the daemon's nest counter metric names, e.g.
// perfevent.hwcounters.nest_mba3_imc.PM_MBA3_READ_BYTES.value.cpu87.
var nestAliasRE = regexp.MustCompile(`^perfevent\.hwcounters\.nest_mba(\d+)_imc\.PM_MBA(\d+)_(READ|WRITE)_BYTES\.value\.cpu(\d+)$`)

// NestAliases builds the conventional short names for the POWER9 nest
// counters from a namespace listing:
//
//	nest.mba<ch>.read_bytes.cpu<N>   — every instance, qualified
//	nest.mba<ch>.read_bytes          — the lowest-numbered CPU (socket 0)
//
// so `nest.mba*.read_bytes` expands to the eight socket-0 read counters,
// matching the per-socket selection the paper's Table I uses.
func NestAliases(names []pcp.NameEntry) map[string]string {
	type bare struct {
		cpu int
		raw string
	}
	out := make(map[string]string)
	lowest := make(map[string]bare)
	for _, e := range names {
		m := nestAliasRE.FindStringSubmatch(e.Name)
		if m == nil {
			continue
		}
		ch, dir, cpuStr := m[1], m[3], m[4]
		short := "nest.mba" + ch + "." + map[string]string{"READ": "read", "WRITE": "write"}[dir] + "_bytes"
		out[short+".cpu"+cpuStr] = e.Name
		cpu, _ := strconv.Atoi(cpuStr)
		if b, ok := lowest[short]; !ok || cpu < b.cpu {
			lowest[short] = bare{cpu: cpu, raw: e.Name}
		}
	}
	for short, b := range lowest {
		out[short] = b.raw
	}
	return out
}

// Query is an expression bound to an engine: patterns expanded to PMIDs,
// canonical memo keys computed, window histories allocated.
type Query struct {
	eng  *Engine
	root *node
	src  string
}

// Query parses and binds src. Binding expands metric patterns against
// the source namespace and the alias table, verifies vector widths are
// consistent, and prepares per-node state. The returned Query is only
// valid on this engine.
func (e *Engine) Query(src string) (*Query, error) {
	ex, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Bind(ex)
}

// Bind binds a parsed expression to this engine (see Query). The Expr
// itself is not modified; the Query holds a bound copy.
func (e *Engine) Bind(ex *Expr) (*Query, error) {
	root := cloneNode(ex.root)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.bindNode(root); err != nil {
		return nil, err
	}
	if _, err := staticWidth(root); err != nil {
		return nil, err
	}
	return &Query{eng: e, root: root, src: ex.src}, nil
}

func cloneNode(n *node) *node {
	c := &node{kind: n.kind, num: n.num, pattern: n.pattern, op: n.op, fn: n.fn, window: n.window, by: n.by}
	c.args = make([]*node, len(n.args))
	for i, a := range n.args {
		c.args[i] = cloneNode(a)
	}
	return c
}

// bindNode resolves metric patterns and computes memo keys bottom-up.
// Keys incorporate the bound PMIDs (not just the pattern text) so two
// bindings of the same pattern against a namespace that grew in between
// never share a memo entry. Windowed nodes share their sample history
// engine-wide by key, so the ring stays complete no matter which query
// containing the subexpression is evaluated on a given tick. Callers
// hold e.mu.
func (e *Engine) bindNode(n *node) error {
	for _, a := range n.args {
		if err := e.bindNode(a); err != nil {
			return err
		}
	}
	if n.kind == nodeMetric {
		sel, err := e.expandPattern(n.pattern)
		if err != nil {
			return err
		}
		n.sel = sel
	}
	n.key = boundKey(n)
	if n.window != 0 {
		h, ok := e.hists[n.key]
		if !ok {
			h = &history{}
			e.hists[n.key] = h
		}
		n.hist = h
	}
	return nil
}

// boundKey builds the memoization key from bound children: like the
// canonical String() form, but metric nodes carry their expanded PMIDs.
func boundKey(n *node) string {
	switch n.kind {
	case nodeNum:
		return strconv.FormatFloat(n.num, 'g', -1, 64)
	case nodeMetric:
		var b strings.Builder
		b.WriteString(n.pattern)
		b.WriteByte('@')
		for i, s := range n.sel {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(uint64(s.pmid), 10))
		}
		return b.String()
	case nodeUnary:
		return "(-" + n.args[0].key + ")"
	case nodeBinary:
		return "(" + n.args[0].key + " " + string(n.op) + " " + n.args[1].key + ")"
	case nodeCall:
		k := n.fn + "(" + n.args[0].key
		if n.window != 0 {
			k += ", " + strconv.FormatInt(n.window, 10) + "ns"
		}
		k += ")"
		if n.by != "" {
			k += " by (" + n.by + ")"
		}
		return k
	}
	return ""
}

// refreshNames (re)lists the namespace into byName. Callers hold e.mu.
func (e *Engine) refreshNames() error {
	entries, err := e.src.Names()
	if err != nil {
		return fmt.Errorf("metricql: listing namespace: %w", err)
	}
	e.byName = make(map[string]uint32, len(entries))
	for _, en := range entries {
		e.byName[en.Name] = en.PMID
	}
	return nil
}

func hasGlob(p string) bool {
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '*', '?', '[':
			return true
		}
	}
	return false
}

// matchQualified matches pattern against a candidate name. A pattern
// that names no node (no ':') additionally matches the metric part of a
// node-qualified name, so "mem.read_bw" or "mem.ch*.read_bw" selects
// that metric on every node of a federated namespace.
func matchQualified(pattern, candidate string) (bool, error) {
	ok, err := path.Match(pattern, candidate)
	if err != nil || ok {
		return ok, err
	}
	if !strings.ContainsRune(pattern, ':') {
		if i := strings.IndexByte(candidate, ':'); i >= 0 {
			return path.Match(pattern, candidate[i+1:])
		}
	}
	return false, nil
}

// expandPattern resolves a metric name or glob into concrete PMIDs.
// Exact names resolve through aliases first, then raw names; globs
// match against the union of alias keys and raw names (alias matches
// deduplicate their raw counterpart by PMID). An exact name that is
// absent but appears node-qualified (node003:mem.read_bw) expands to
// every node's instance, giving unqualified queries cluster-wide scope.
// Callers hold e.mu.
func (e *Engine) expandPattern(pattern string) ([]selection, error) {
	if e.byName == nil {
		if err := e.refreshNames(); err != nil {
			return nil, err
		}
	}
	lookup := func(name string) (uint32, bool) {
		target := name
		if raw, ok := e.aliases[name]; ok {
			target = raw
		}
		id, ok := e.byName[target]
		return id, ok
	}
	if !hasGlob(pattern) {
		id, ok := lookup(pattern)
		if !ok {
			// The namespace may have grown (late Register): refresh once.
			if err := e.refreshNames(); err != nil {
				return nil, err
			}
			id, ok = lookup(pattern)
		}
		if ok {
			return []selection{{name: pattern, pmid: id}}, nil
		}
		// Fall through to the candidate scan: the exact name may exist
		// node-qualified.
	}
	candidates := make([]string, 0, len(e.aliases)+len(e.byName))
	for a := range e.aliases {
		candidates = append(candidates, a)
	}
	for n := range e.byName {
		candidates = append(candidates, n)
	}
	sort.Strings(candidates)
	var sel []selection
	seen := make(map[uint32]bool)
	for _, c := range candidates {
		ok, err := matchQualified(pattern, c)
		if err != nil {
			return nil, errAt(0, "bad pattern %q: %v", pattern, err)
		}
		if !ok {
			continue
		}
		id, found := lookup(c)
		if !found || seen[id] {
			continue
		}
		seen[id] = true
		sel = append(sel, selection{name: c, pmid: id})
	}
	if len(sel) == 0 {
		if !hasGlob(pattern) {
			return nil, fmt.Errorf("metricql: unknown metric %q", pattern)
		}
		return nil, fmt.Errorf("metricql: pattern %q matches no metrics", pattern)
	}
	return sel, nil
}

// staticWidth checks vector-width consistency at bind time and returns
// the node's width: 0 = scalar, -1 = dynamic (a grouped aggregate's
// width is one element per node group, known only at evaluation time).
func staticWidth(n *node) (int, error) {
	switch n.kind {
	case nodeNum:
		return 0, nil
	case nodeMetric:
		return len(n.sel), nil
	case nodeUnary:
		return staticWidth(n.args[0])
	case nodeBinary:
		lw, err := staticWidth(n.args[0])
		if err != nil {
			return 0, err
		}
		rw, err := staticWidth(n.args[1])
		if err != nil {
			return 0, err
		}
		if lw > 0 && rw > 0 && lw != rw {
			return 0, fmt.Errorf("metricql: operand widths differ (%d vs %d) in %s", lw, rw, n.key)
		}
		if lw == -1 || rw == -1 {
			return -1, nil
		}
		if lw != 0 {
			return lw, nil
		}
		return rw, nil
	case nodeCall:
		aw, err := staticWidth(n.args[0])
		if err != nil {
			return 0, err
		}
		switch n.fn {
		case "sum", "avg", "min", "max":
			if n.by != "" {
				if aw == 0 {
					return 0, fmt.Errorf("metricql: %s(...) by (node) needs a vector argument", n.fn)
				}
				return -1, nil
			}
			return 0, nil
		default: // rate, delta, avg_over, max_over preserve width
			return aw, nil
		}
	}
	return 0, fmt.Errorf("metricql: internal: unknown node kind")
}

// Width returns the query's vector width: 0 for a scalar expression,
// -1 for a dynamic width (grouped aggregates), otherwise the number of
// expanded metric instances. Widths 0 and 1 both satisfy Scalar().
func (q *Query) Width() (int, error) { return staticWidth(q.root) }

// collectPMIDs adds every PMID referenced under n to dst.
func collectPMIDs(n *node, dst map[uint32]bool) {
	if n.kind == nodeMetric {
		for _, s := range n.sel {
			dst[s.pmid] = true
		}
	}
	for _, a := range n.args {
		collectPMIDs(a, dst)
	}
}

// Eval evaluates a single query; see EvalAll. On a partial result the
// Value is valid alongside the non-nil *pcp.PartialError.
func (q *Query) Eval() (Value, error) {
	vs, err := q.eng.EvalAll(q)
	if len(vs) > 0 {
		return vs[0], err
	}
	return Value{}, err
}

// EvalAll fetches every metric referenced by the given queries in one
// round trip, advances counter state if the fetch carries a new
// timestamp, and evaluates each query. Queries sharing subexpressions
// (by canonical form) share the memoized result. Re-evaluating within
// the same daemon sampling interval (same fetch timestamp) advances no
// state and serves memoized values — the engine's cadence is the
// daemon's, like every other PCP consumer.
//
// A federated source may answer partially: values carrying
// StatusNodeDown are dropped from the vectors they would appear in, the
// evaluation proceeds over what answered, and the source's
// *pcp.PartialError (naming the missing nodes) is returned alongside
// the valid values. Any other error leaves the returned slice nil.
func (e *Engine) EvalAll(qs ...*Query) ([]Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !slices.Equal(qs, e.qs) { // a bound panel asks for the same queries every step
		idset := make(map[uint32]bool)
		for _, q := range qs {
			if q.eng != e {
				return nil, fmt.Errorf("metricql: query bound to a different engine")
			}
			collectPMIDs(q.root, idset)
		}
		e.qs, e.ids = append(e.qs[:0], qs...), e.ids[:0]
		for id := range idset {
			e.ids = append(e.ids, id)
		}
		slices.Sort(e.ids)
	}
	res, err := e.src.Fetch(e.ids)
	var pe *pcp.PartialError
	if err != nil && !errors.As(err, &pe) {
		return nil, fmt.Errorf("metricql: fetch: %w", err)
	}
	if len(res.Values) != len(e.ids) {
		return nil, fmt.Errorf("metricql: fetch returned %d values for %d pmids", len(res.Values), len(e.ids))
	}
	byID, down := e.byID, e.down
	clear(byID)
	clear(down)
	for _, v := range res.Values {
		switch v.Status {
		case pcp.StatusOK:
			byID[v.PMID] = v.Value
		case pcp.StatusNodeDown:
			down[v.PMID] = true
		default:
			return nil, fmt.Errorf("metricql: pmid %d failed with status %d", v.PMID, v.Status)
		}
	}
	ts := res.Timestamp
	if e.hasTS && ts < e.lastTS {
		return nil, fmt.Errorf("metricql: fetch timestamp went backwards (%d < %d)", ts, e.lastTS)
	}
	fresh := !e.hasTS || ts > e.lastTS
	if downKey := downSetKey(down); fresh || downKey != e.downKey {
		// A new daemon sample, or the same one with a different set of
		// down nodes: memoized vectors embed the old down-set's shape.
		clear(e.memo)
		e.downKey = downKey
	}
	if fresh {
		for id, v := range byID {
			st := e.state[id]
			if st == nil {
				st = &counterState{}
				e.state[id] = st
			}
			if st.seen > 0 {
				st.prev, st.prevTS = st.cur, st.curTS
			}
			st.cur, st.curTS = v, ts
			st.seen++
		}
		e.lastTS, e.hasTS = ts, true
	} else {
		// Same daemon sample as last time: top up state for PMIDs this
		// fetch saw for the first time, keep existing memo entries.
		for id, v := range byID {
			if e.state[id] == nil {
				e.state[id] = &counterState{cur: v, curTS: ts, seen: 1}
			}
		}
	}
	out := make([]Value, len(qs))
	for i, q := range qs {
		v, err := e.evalNode(q.root, ts, fresh)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	if pe != nil {
		return out, pe
	}
	return out, nil
}

// downSetKey canonicalizes a down-PMID set for memo invalidation.
func downSetKey(down map[uint32]bool) string {
	if len(down) == 0 {
		return ""
	}
	ids := make([]uint32, 0, len(down))
	for id := range down {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(id), 10))
	}
	return b.String()
}

// LastTimestamp returns the daemon timestamp of the most recent fetch.
func (e *Engine) LastTimestamp() (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastTS, e.hasTS
}

// evalNode evaluates one bound node, memoizing by canonical key.
// Callers hold e.mu.
func (e *Engine) evalNode(n *node, ts int64, fresh bool) (Value, error) {
	if v, ok := e.memo[n.key]; ok {
		return v, nil
	}
	v, err := e.evalNodeUncached(n, ts, fresh)
	if err != nil {
		return Value{}, err
	}
	e.memo[n.key] = v
	return v, nil
}

func (e *Engine) evalNodeUncached(n *node, ts int64, fresh bool) (Value, error) {
	switch n.kind {
	case nodeNum:
		return Value{Vals: []float64{n.num}}, nil

	case nodeMetric:
		names := make([]string, 0, len(n.sel))
		vals := make([]float64, 0, len(n.sel))
		for _, s := range n.sel {
			v, ok := e.byID[s.pmid]
			if !ok {
				if e.down[s.pmid] {
					// The owning node is down this snapshot: partial-result
					// semantics drop the instance rather than serve a value
					// from a different time.
					continue
				}
				// PMID referenced by another query binding but not
				// fetched this round — serve the last observed sample.
				if st := e.state[s.pmid]; st != nil && st.seen > 0 {
					v = st.cur
				} else {
					return Value{}, fmt.Errorf("metricql: no sample yet for %s", s.name)
				}
			}
			names = append(names, s.name)
			vals = append(vals, float64(v))
		}
		return Value{Names: names, Vals: vals}, nil

	case nodeUnary:
		v, err := e.evalNode(n.args[0], ts, fresh)
		if err != nil {
			return Value{}, err
		}
		out := Value{Names: v.Names, Vals: make([]float64, len(v.Vals))}
		for i, x := range v.Vals {
			out.Vals[i] = -x
		}
		return out, nil

	case nodeBinary:
		l, err := e.evalNode(n.args[0], ts, fresh)
		if err != nil {
			return Value{}, err
		}
		r, err := e.evalNode(n.args[1], ts, fresh)
		if err != nil {
			return Value{}, err
		}
		return applyBinary(n.op, l, r)

	case nodeCall:
		switch n.fn {
		case "rate", "delta":
			return e.evalCounterFn(n, ts)
		case "sum", "avg", "min", "max":
			v, err := e.evalNode(n.args[0], ts, fresh)
			if err != nil {
				return Value{}, err
			}
			if n.by != "" {
				return aggregateBy(n.fn, v)
			}
			return aggregate(n.fn, v)
		case "avg_over", "max_over", "min_over", "rate_over":
			if v, ok, err := e.evalWindowPushdown(n, ts); err != nil {
				return Value{}, err
			} else if ok {
				return v, nil
			}
			v, err := e.evalNode(n.args[0], ts, fresh)
			if err != nil {
				return Value{}, err
			}
			return e.evalWindow(n, v, ts, fresh)
		}
	}
	return Value{}, fmt.Errorf("metricql: internal: cannot evaluate node %q", n.key)
}

// evalCounterFn computes rate() or delta() from the per-PMID counter
// state: the difference of the last two daemon samples with
// monotonic-wrap correction via pcp.CounterDelta. Until two distinct
// samples exist the result is 0 (matching a counter that has not yet
// moved). Callers hold e.mu.
func (e *Engine) evalCounterFn(n *node, ts int64) (Value, error) {
	arg := n.args[0]
	names := make([]string, 0, len(arg.sel))
	vals := make([]float64, 0, len(arg.sel))
	for _, s := range arg.sel {
		if e.down[s.pmid] {
			continue // node down this snapshot: drop, don't fabricate a 0 rate
		}
		names = append(names, s.name)
		st := e.state[s.pmid]
		if st == nil || st.seen < 2 {
			vals = append(vals, 0)
			continue
		}
		d := float64(pcp.CounterDelta(st.prev, st.cur))
		if n.fn == "delta" {
			vals = append(vals, d)
			continue
		}
		dt := float64(st.curTS-st.prevTS) / 1e9
		if dt <= 0 {
			vals = append(vals, 0)
			continue
		}
		vals = append(vals, d/dt)
	}
	return Value{Names: names, Vals: vals}, nil
}

// evalWindow appends the current value of the windowed node's argument
// to its history ring (once per distinct timestamp), prunes samples
// outside the half-open window (ts-window, ts] — so a 2s window on a
// 1s cadence aggregates exactly two samples — and reduces elementwise
// over the retained samples including the current one. A pushed-down
// window (WindowPlanner) covers [ts-window, ts) instead: the same
// number of samples at the recording cadence, shifted one sample
// older. Callers hold e.mu.
func (e *Engine) evalWindow(n *node, cur Value, ts int64, fresh bool) (Value, error) {
	h := n.hist
	if len(h.vals) > 0 && len(h.vals[len(h.vals)-1]) != len(cur.Vals) {
		// Partial results changed the vector width; old rows can no
		// longer be reduced elementwise against the new shape.
		h.ts = h.ts[:0]
		h.vals = h.vals[:0]
	}
	if len(h.ts) == 0 || h.ts[len(h.ts)-1] != ts {
		vcopy := make([]float64, len(cur.Vals))
		copy(vcopy, cur.Vals)
		h.ts = append(h.ts, ts)
		h.vals = append(h.vals, vcopy)
	}
	cut := ts - n.window
	drop := 0
	for drop < len(h.ts)-1 && h.ts[drop] <= cut {
		drop++
	}
	h.ts = h.ts[drop:]
	h.vals = h.vals[drop:]
	out := Value{Names: cur.Names, Vals: make([]float64, len(cur.Vals))}
	for i := range out.Vals {
		var acc float64
		switch n.fn {
		case "rate_over":
			// Wrap-corrected increase across the retained samples over
			// their time span. The ring only sees the window's first and
			// last samples, so a counter that wrapped more than once
			// inside one window under-reports — the archive pushdown
			// path, which sums per-sample deltas, has no such bound.
			if len(h.vals) >= 2 {
				d := h.vals[len(h.vals)-1][i] - h.vals[0][i]
				if d < 0 {
					d += twoTo64 // counter wrapped mod 2^64
				}
				if dt := float64(h.ts[len(h.ts)-1]-h.ts[0]) / 1e9; dt > 0 {
					acc = d / dt
				}
			}
		default:
			acc = h.vals[0][i]
			for _, row := range h.vals[1:] {
				switch n.fn {
				case "max_over":
					acc = math.Max(acc, row[i])
				case "min_over":
					acc = math.Min(acc, row[i])
				default:
					acc += row[i]
				}
			}
			if n.fn == "avg_over" {
				acc /= float64(len(h.vals))
			}
		}
		out.Vals[i] = acc
	}
	return out, nil
}

// twoTo64 is 2^64 as a float64, the wrap modulus of a uint64 counter.
const twoTo64 = 1 << 64

// evalWindowPushdown asks the source's WindowPlanner (if any) to answer
// a windowed function over a plain metric argument directly. Returns
// ok=false — engine falls back to the sample ring — when the source is
// not a planner, the argument is not a bare metric selection, or the
// planner declines any selected PMID. Callers hold e.mu.
func (e *Engine) evalWindowPushdown(n *node, ts int64) (Value, bool, error) {
	if e.wp == nil {
		return Value{}, false, nil
	}
	arg := n.args[0]
	if arg.kind != nodeMetric {
		return Value{}, false, nil
	}
	names := make([]string, 0, len(arg.sel))
	vals := make([]float64, 0, len(arg.sel))
	for _, s := range arg.sel {
		if e.down[s.pmid] {
			continue // node down this snapshot: drop, as the ring path does
		}
		v, ok, err := e.wp.EvalWindow(n.fn, s.pmid, ts-n.window, ts)
		if err != nil {
			return Value{}, false, err
		}
		if !ok {
			return Value{}, false, nil
		}
		names = append(names, s.name)
		vals = append(vals, v)
	}
	return Value{Names: names, Vals: vals}, true, nil
}

// aggregate collapses a vector to a scalar.
func aggregate(fn string, v Value) (Value, error) {
	if len(v.Vals) == 0 {
		return Value{}, fmt.Errorf("metricql: %s() of empty vector", fn)
	}
	return Value{Vals: []float64{reduce(fn, v.Vals)}}, nil
}

// reduce folds vals (non-empty) under one aggregate function.
func reduce(fn string, vals []float64) float64 {
	acc := vals[0]
	for _, x := range vals[1:] {
		switch fn {
		case "sum", "avg":
			acc += x
		case "min":
			acc = math.Min(acc, x)
		case "max":
			acc = math.Max(acc, x)
		}
	}
	if fn == "avg" {
		acc /= float64(len(vals))
	}
	return acc
}

// nodeOf extracts the node label of a qualified metric name: the prefix
// before the first ':', or "" for an unqualified name.
func nodeOf(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return ""
}

// aggregateBy collapses a vector to one element per node group, the
// evaluation of "sum(x) by (node)". Group names sort lexically so the
// output is deterministic; an all-down input yields an empty (non-nil)
// vector rather than an error — the accompanying *pcp.PartialError
// names what is missing.
func aggregateBy(fn string, v Value) (Value, error) {
	if v.Names == nil {
		return Value{}, fmt.Errorf("metricql: %s(...) by (node) needs a vector argument", fn)
	}
	groups := make(map[string][]float64)
	for i, name := range v.Names {
		k := nodeOf(name)
		groups[k] = append(groups[k], v.Vals[i])
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := Value{Names: make([]string, 0, len(keys)), Vals: make([]float64, 0, len(keys))}
	for _, k := range keys {
		out.Names = append(out.Names, k)
		out.Vals = append(out.Vals, reduce(fn, groups[k]))
	}
	return out, nil
}

// applyBinary combines two values, broadcasting a scalar against a
// vector. Vector-vector requires equal widths (checked at bind time;
// re-checked here for safety) and keeps the left operand's names.
func applyBinary(op byte, l, r Value) (Value, error) {
	apply := func(a, b float64) float64 {
		switch op {
		case '+':
			return a + b
		case '-':
			return a - b
		case '*':
			return a * b
		case '/':
			if b == 0 {
				return math.NaN()
			}
			return a / b
		}
		return math.NaN()
	}
	lscalar := l.Names == nil && len(l.Vals) == 1
	rscalar := r.Names == nil && len(r.Vals) == 1
	switch {
	case lscalar && rscalar:
		return Value{Vals: []float64{apply(l.Vals[0], r.Vals[0])}}, nil
	case lscalar:
		out := Value{Names: r.Names, Vals: make([]float64, len(r.Vals))}
		for i, x := range r.Vals {
			out.Vals[i] = apply(l.Vals[0], x)
		}
		return out, nil
	case rscalar:
		out := Value{Names: l.Names, Vals: make([]float64, len(l.Vals))}
		for i, x := range l.Vals {
			out.Vals[i] = apply(x, r.Vals[0])
		}
		return out, nil
	default:
		if len(l.Vals) != len(r.Vals) {
			return Value{}, fmt.Errorf("metricql: operand widths differ (%d vs %d)", len(l.Vals), len(r.Vals))
		}
		out := Value{Names: l.Names, Vals: make([]float64, len(l.Vals))}
		for i := range l.Vals {
			out.Vals[i] = apply(l.Vals[i], r.Vals[i])
		}
		return out, nil
	}
}
