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
// vector with one element per expanded metric instance. Names may be
// shared with other values and with later steps: it is read-only. Vals
// is storage the engine owns, valid until the next EvalAll or Eval on
// the same engine rewrites it: a caller that keeps a value past that
// copies Vals first.
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
	name  string // display name (alias if matched through one)
	pmid  uint32
	*slot // the engine's one slot for pmid
}

// slot is the state of one PMID, shared by every selection of it: the
// last two distinct samples, the substrate for rate() and delta(), the
// value of the last fetch, and the fetch epoch at which the PMID's node
// was last down.
type slot struct {
	prev, cur     uint64
	prevTS, curTS int64
	seen          int // distinct timestamps observed
	last          uint64
	downAt        uint64
}

// history is a per-node ring of (timestamp, vector) samples for the
// windowed functions.
type history struct {
	ts   []int64
	vals [][]float64
}

// Engine evaluates parsed expressions against one Source. Binding
// interns every subexpression by its canonical bound key — one node
// per key holding its memoized value and its window ring, so shared
// subtrees across queries cost one computation per fetch — and points
// every selection at one slot per PMID. A step walks the fetch answer
// against the sorted request by position, bumps the fetch epoch and,
// when the sample is new or the down set moved, the memo generation:
// it touches no map. Each node evaluates into storage it owns, and the
// answer slice and the fetch reply are the engine's too, so a warm step
// allocates nothing of its own.
type Engine struct {
	mu      sync.Mutex
	src     Source
	fi      fetchIntoSource   // non-nil if src can fetch into a reused reply
	wp      WindowPlanner     // non-nil if src can answer windows itself
	aliases map[string]string // alias -> raw metric name
	byName  map[string]uint32 // raw metric name -> pmid (namespace cache)
	nodes   map[string]*node  // bound key -> interned node, read at bind only
	slots   map[uint32]*slot  // pmid -> its slot, read at bind only
	qs      []*Query          // the query set ids was built from
	ids     []uint32          // sorted PMIDs of qs, rebuilt only when qs changes
	at      []*slot           // the slot of each of ids
	epoch   uint64            // fetches taken; a slot down on this one has downAt == epoch
	gen     uint64            // memo generation: a node's val holds while its gen is this
	ndown   int               // PMIDs down on the last fetch
	lastTS  int64
	hasTS   bool
	res     pcp.FetchResult // the last fetch reply, reused by fi
	out     []Value         // EvalAll's answer, reused across steps
}

// fetchIntoSource is the allocation-free fetch pcp.Client and
// archive.Replay offer: the engine decodes every step's reply into the
// one it keeps.
type fetchIntoSource interface {
	FetchInto(pmids []uint32, res *pcp.FetchResult) error
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
	fi, _ := src.(fetchIntoSource)
	wp, _ := src.(WindowPlanner)
	return &Engine{
		src:     src,
		fi:      fi,
		wp:      wp,
		aliases: make(map[string]string),
		nodes:   make(map[string]*node),
		slots:   make(map[uint32]*slot),
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
// the root an interned node of the engine's.
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
// itself is not modified; the Query holds bound nodes of the engine's.
func (e *Engine) Bind(ex *Expr) (*Query, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	root, err := e.bindNode(ex.root)
	if err != nil {
		return nil, err
	}
	if _, err := staticWidth(root); err != nil {
		return nil, err
	}
	return &Query{eng: e, root: root, src: ex.src}, nil
}

// bindNode returns the engine's bound node for the parsed node x,
// binding its children first. A node is interned by its bound key, so
// equal subexpressions across queries are one node: they share its
// memoized value and its window ring, and the ring stays complete
// whichever query carried the subexpression on a tick. Keys carry the
// bound PMIDs (not just the pattern text) so a pattern re-bound after
// the namespace grew gets a node of its own. A new metric node points
// each selection at the engine's slot for its PMID and keeps the names
// its values share. Callers hold e.mu.
func (e *Engine) bindNode(x *node) (*node, error) {
	n := &node{kind: x.kind, num: x.num, pattern: x.pattern, op: x.op, fn: x.fn, window: x.window, by: x.by}
	for _, a := range x.args {
		b, err := e.bindNode(a)
		if err != nil {
			return nil, err
		}
		n.args = append(n.args, b)
	}
	if n.kind == nodeMetric {
		sel, err := e.expandPattern(n.pattern)
		if err != nil {
			return nil, err
		}
		n.sel = sel
	}
	n.key = boundKey(n)
	if b := e.nodes[n.key]; b != nil {
		return b, nil
	}
	for i, s := range n.sel {
		if e.slots[s.pmid] == nil {
			e.slots[s.pmid] = &slot{}
		}
		n.sel[i].slot = e.slots[s.pmid]
		n.names = append(n.names, s.name)
	}
	e.nodes[n.key] = n
	return n, nil
}

// boundKey builds the interning key from bound children: like the
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
// Value is valid alongside the non-nil *pcp.PartialError. The Value's
// Vals stay valid until the next EvalAll or Eval on the engine.
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
// daemon's, like every other PCP consumer. The answer must carry the
// requested PMIDs in the order asked; one that does not is an error.
//
// A federated source may answer partially: values carrying
// StatusNodeDown are dropped from the vectors they would appear in, the
// evaluation proceeds over what answered, and the source's
// *pcp.PartialError (naming the missing nodes) is returned alongside
// the valid values. Any other error leaves the returned slice nil.
//
// The slice and every Value's Vals are the engine's: the next EvalAll
// or Eval on this engine rewrites them, so a caller keeping a value
// across steps copies it, and callers sharing the engine across
// goroutines hold their own lock until they are done reading.
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
		e.qs, e.ids, e.at = append(e.qs[:0], qs...), e.ids[:0], e.at[:0]
		for id := range idset {
			e.ids = append(e.ids, id)
		}
		slices.Sort(e.ids)
		for _, id := range e.ids {
			e.at = append(e.at, e.slots[id])
		}
	}
	var err error
	if e.fi != nil {
		err = e.fi.FetchInto(e.ids, &e.res)
	} else {
		e.res, err = e.src.Fetch(e.ids)
	}
	res := e.res
	var pe *pcp.PartialError
	if err != nil {
		if pe = partialOf(err); pe == nil {
			return nil, fmt.Errorf("metricql: fetch: %w", err)
		}
	}
	if len(res.Values) != len(e.ids) {
		return nil, fmt.Errorf("metricql: fetch returned %d values for %d pmids", len(res.Values), len(e.ids))
	}
	for i, v := range res.Values {
		if v.PMID != e.ids[i] {
			return nil, fmt.Errorf("metricql: fetch answered pmid %d where pmid %d was asked", v.PMID, e.ids[i])
		}
		if v.Status != pcp.StatusOK && v.Status != pcp.StatusNodeDown {
			return nil, fmt.Errorf("metricql: pmid %d failed with status %d", v.PMID, v.Status)
		}
	}
	ts := res.Timestamp
	if e.hasTS && ts < e.lastTS {
		return nil, fmt.Errorf("metricql: fetch timestamp went backwards (%d < %d)", ts, e.lastTS)
	}
	fresh := !e.hasTS || ts > e.lastTS
	e.epoch++
	down, kept := 0, 0 // PMIDs down now, and of those the ones down on the last fetch
	for i, v := range res.Values {
		s := e.at[i]
		if v.Status == pcp.StatusNodeDown {
			if s.downAt == e.epoch-1 {
				kept++
			}
			s.downAt, down = e.epoch, down+1
			continue
		}
		s.last = v.Value
		if fresh || s.seen == 0 { // a new daemon sample, or this PMID's first
			s.prev, s.prevTS, s.cur, s.curTS = s.cur, s.curTS, v.Value, ts
			s.seen++
		}
	}
	if fresh || down != e.ndown || kept != down {
		// A new daemon sample, or the same one with a different set of
		// down PMIDs: memoized vectors embed the old down-set's shape.
		e.gen++
	}
	e.ndown = down
	if fresh {
		e.lastTS, e.hasTS = ts, true
	}
	e.out = e.out[:0]
	for _, q := range qs {
		v, err := e.evalNode(q.root, ts, fresh)
		if err != nil {
			return nil, err
		}
		e.out = append(e.out, v)
	}
	if pe != nil {
		return e.out, pe
	}
	return e.out, nil
}

// partialOf returns the *pcp.PartialError in err's chain, or nil. Only
// a call allocates errors.As's target, so a clean fetch allocates none.
func partialOf(err error) (pe *pcp.PartialError) {
	errors.As(err, &pe)
	return pe
}

// LastTimestamp returns the daemon timestamp of the most recent fetch.
func (e *Engine) LastTimestamp() (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastTS, e.hasTS
}

// evalNode evaluates one bound node, memoized in the node until the
// engine's generation moves: the memo's Vals are the node's buf, which
// only an evaluation at a new generation rewrites. Callers hold e.mu.
func (e *Engine) evalNode(n *node, ts int64, fresh bool) (Value, error) {
	if n.gen == e.gen {
		return n.val, nil
	}
	v, err := e.evalNodeUncached(n, ts, fresh)
	if err != nil {
		return Value{}, err
	}
	n.val, n.gen = v, e.gen
	return v, nil
}

// vals returns n's value storage resized to k: every node evaluates
// into its own, so a step's values share no buffer a later node of the
// same step writes.
func (n *node) vals(k int) []float64 {
	if cap(n.buf) < k {
		n.buf = make([]float64, k)
	}
	n.buf = n.buf[:k]
	return n.buf
}

// live returns the names of the metric node m's instances whose node
// answered the last fetch: m's own names, shared and read-only, when
// nothing is down, else a fresh slice without the down ones. Down
// instances are dropped rather than served from a different time.
func (e *Engine) live(m *node) []string {
	if e.ndown == 0 {
		return m.names
	}
	names := make([]string, 0, len(m.sel))
	for _, s := range m.sel {
		if s.downAt != e.epoch {
			names = append(names, s.name)
		}
	}
	return names
}

func (e *Engine) evalNodeUncached(n *node, ts int64, fresh bool) (Value, error) {
	switch n.kind {
	case nodeNum:
		out := n.vals(1)
		out[0] = n.num
		return Value{Vals: out}, nil

	case nodeMetric:
		out, j := n.vals(len(n.sel)), 0
		for _, s := range n.sel {
			if s.downAt != e.epoch {
				out[j], j = float64(s.last), j+1
			}
		}
		return Value{Names: e.live(n), Vals: out[:j]}, nil

	case nodeUnary:
		v, err := e.evalNode(n.args[0], ts, fresh)
		if err != nil {
			return Value{}, err
		}
		out := n.vals(len(v.Vals))
		for i, x := range v.Vals {
			out[i] = -x
		}
		return Value{Names: v.Names, Vals: out}, nil

	case nodeBinary:
		l, err := e.evalNode(n.args[0], ts, fresh)
		if err != nil {
			return Value{}, err
		}
		r, err := e.evalNode(n.args[1], ts, fresh)
		if err != nil {
			return Value{}, err
		}
		return applyBinary(n, l, r)

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
				return aggregateBy(n, v)
			}
			return aggregate(n, v)
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
	out, j := n.vals(len(arg.sel)), 0
	for _, s := range arg.sel {
		switch {
		case s.downAt == e.epoch: // node down this snapshot: drop, don't fabricate a 0 rate
			continue
		case s.seen < 2:
			out[j] = 0
		case n.fn == "delta":
			out[j] = float64(pcp.CounterDelta(s.prev, s.cur))
		case s.curTS <= s.prevTS:
			out[j] = 0
		default:
			out[j] = float64(pcp.CounterDelta(s.prev, s.cur)) / (float64(s.curTS-s.prevTS) / 1e9)
		}
		j++
	}
	return Value{Names: e.live(arg), Vals: out[:j]}, nil
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
	h := &n.hist
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
	out := n.vals(len(cur.Vals))
	for i := range out {
		var acc float64
		switch n.fn {
		case "rate_over":
			// The wrap-corrected steps between consecutive retained
			// samples, summed, over their time span.
			for k := 1; k < len(h.vals); k++ {
				d := h.vals[k][i] - h.vals[k-1][i]
				if d < 0 {
					d += twoTo64 // counter wrapped mod 2^64
				}
				acc += d
			}
			if dt := float64(h.ts[len(h.ts)-1]-h.ts[0]) / 1e9; dt > 0 {
				acc /= dt
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
		out[i] = acc
	}
	return Value{Names: cur.Names, Vals: out}, nil
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
	out, j := n.vals(len(arg.sel)), 0
	for _, s := range arg.sel {
		if s.downAt == e.epoch {
			continue // node down this snapshot: drop, as the ring path does
		}
		v, ok, err := e.wp.EvalWindow(n.fn, s.pmid, ts-n.window, ts)
		if err != nil {
			return Value{}, false, err
		}
		if !ok {
			return Value{}, false, nil
		}
		out[j], j = v, j+1
	}
	return Value{Names: e.live(arg), Vals: out[:j]}, true, nil
}

// aggregate collapses a vector to a scalar in n's storage.
func aggregate(n *node, v Value) (Value, error) {
	if len(v.Vals) == 0 {
		return Value{}, fmt.Errorf("metricql: %s() of empty vector", n.fn)
	}
	out := n.vals(1)
	out[0] = reduce(n.fn, v.Vals)
	return Value{Vals: out}, nil
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
func aggregateBy(n *node, v Value) (Value, error) {
	if v.Names == nil {
		return Value{}, fmt.Errorf("metricql: %s(...) by (node) needs a vector argument", n.fn)
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
	out := Value{Names: keys, Vals: n.vals(len(keys))}
	for i, k := range keys {
		out.Vals[i] = reduce(n.fn, groups[k])
	}
	return out, nil
}

// applyBinary combines two values into n's storage, broadcasting a
// scalar against a vector. Vector-vector requires equal widths (checked
// at bind time; re-checked here for safety) and keeps the left
// operand's names.
func applyBinary(n *node, l, r Value) (Value, error) {
	apply := func(a, b float64) float64 {
		switch n.op {
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
		out := n.vals(1)
		out[0] = apply(l.Vals[0], r.Vals[0])
		return Value{Vals: out}, nil
	case lscalar:
		out := n.vals(len(r.Vals))
		for i, x := range r.Vals {
			out[i] = apply(l.Vals[0], x)
		}
		return Value{Names: r.Names, Vals: out}, nil
	case rscalar:
		out := n.vals(len(l.Vals))
		for i, x := range l.Vals {
			out[i] = apply(x, r.Vals[0])
		}
		return Value{Names: l.Names, Vals: out}, nil
	default:
		if len(l.Vals) != len(r.Vals) {
			return Value{}, fmt.Errorf("metricql: operand widths differ (%d vs %d)", len(l.Vals), len(r.Vals))
		}
		out := n.vals(len(l.Vals))
		for i := range l.Vals {
			out[i] = apply(l.Vals[i], r.Vals[i])
		}
		return Value{Names: l.Names, Vals: out}, nil
	}
}
