// Package derived implements a PAPI component whose events are metricql
// expressions over a PCP metric source, the analogue of PCP's derived
// metrics: an EventSet can mix raw counters and derived quantities
// (`derived:::mem.read_bw` next to a raw nest counter) and profile.Run
// works unchanged. Events are either names registered up front with
// Register — the curated namespace papitool lists — or ad-hoc: any
// native name that parses as a metricql expression is an event, so
//
//	es.Add("derived:::sum(rate(nest.mba*.read_bytes))")
//
// needs no prior setup.
package derived

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"papimc/internal/metricql"
	"papimc/internal/papi"
	"papimc/internal/simtime"
)

// registration is one curated derived metric.
type registration struct {
	expr  string
	desc  string
	units string
}

// Component evaluates metricql expressions as PAPI events.
type Component struct {
	mu         sync.Mutex
	read       sync.Mutex // held by a read from its evaluation until it is done with the engine's values
	engine     *metricql.Engine
	registered map[string]registration
}

// New builds the component over an existing engine (which carries the
// metric source, aliases, and counter state).
func New(engine *metricql.Engine) *Component {
	return &Component{engine: engine, registered: make(map[string]registration)}
}

// Engine returns the underlying expression engine, for consumers (the
// rule engine, pmquery) that want to share its counter state.
func (c *Component) Engine() *metricql.Engine { return c.engine }

// Name implements papi.Component.
func (c *Component) Name() string { return "derived" }

// Register adds a curated derived metric under a short name. The
// expression is validated by parsing; binding (which needs the metric
// source) is deferred to Describe/NewCounters.
func (c *Component) Register(name, expr, desc, units string) error {
	if name == "" {
		return fmt.Errorf("derived: empty metric name")
	}
	if _, err := metricql.Parse(expr); err != nil {
		return fmt.Errorf("derived: registering %q: %w", name, err)
	}
	c.mu.Lock()
	c.registered[name] = registration{expr: expr, desc: desc, units: units}
	c.mu.Unlock()
	return nil
}

// RegisterNestStandards installs the conventional memory-bandwidth
// metrics over the POWER9 nest counters — the derived quantities the
// paper's Figs. 10-12 plot. mem.total_bw shares its read and write
// subtrees with mem.read_bw/mem.write_bw, so an EventSet carrying all
// three costs one fetch and one rate computation per subtree per
// interval (the engine memoizes by canonical subexpression).
func RegisterNestStandards(c *Component) error {
	for _, m := range []struct{ name, expr, desc, units string }{
		{"mem.read_bw", "sum(rate(nest.mba*.read_bytes))",
			"memory read bandwidth summed over the 8 MBA channels", "bytes/s"},
		{"mem.write_bw", "sum(rate(nest.mba*.write_bytes))",
			"memory write bandwidth summed over the 8 MBA channels", "bytes/s"},
		{"mem.total_bw", "sum(rate(nest.mba*.read_bytes)) + sum(rate(nest.mba*.write_bytes))",
			"total memory bandwidth, read + write", "bytes/s"},
		{"mem.rw_ratio", "sum(rate(nest.mba*.read_bytes)) / sum(rate(nest.mba*.write_bytes))",
			"read-to-write bandwidth ratio", ""},
	} {
		if err := c.Register(m.name, m.expr, m.desc, m.units); err != nil {
			return err
		}
	}
	return nil
}

// resolve maps a native event name to the expression to evaluate:
// a registered short name, or the name itself as an ad-hoc expression.
func (c *Component) resolve(native string) (expr string, reg registration, curated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.registered[native]; ok {
		return r.expr, r, true
	}
	return native, registration{}, false
}

// ListEvents implements papi.Component: the curated registrations only
// (the ad-hoc namespace is unbounded).
func (c *Component) ListEvents() ([]papi.EventInfo, error) {
	c.mu.Lock()
	names := make([]string, 0, len(c.registered))
	for n := range c.registered {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]papi.EventInfo, len(names))
	for i, n := range names {
		r := c.registered[n]
		ex, err := metricql.Parse(r.expr)
		if err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("derived: registered %q: %w", n, err)
		}
		out[i] = papi.EventInfo{
			Name:        n,
			Description: fmt.Sprintf("%s (= %s)", r.desc, r.expr),
			Units:       r.units,
			Instant:     ex.Instant(),
		}
	}
	c.mu.Unlock()
	return out, nil
}

// Describe implements papi.Component. Unknown names are treated as
// ad-hoc expressions; anything that fails to parse or bind (unknown
// metrics, vector-valued result) is ErrNoEvent.
func (c *Component) Describe(native string) (papi.EventInfo, error) {
	expr, reg, curated := c.resolve(native)
	ex, q, err := c.bind(expr)
	if err != nil {
		return papi.EventInfo{}, fmt.Errorf("%w: derived %q: %v", papi.ErrNoEvent, native, err)
	}
	_ = q
	info := papi.EventInfo{
		Name:        native,
		Description: fmt.Sprintf("derived metric %s", expr),
		Units:       reg.units,
		Instant:     ex.Instant(),
	}
	if curated {
		info.Description = fmt.Sprintf("%s (= %s)", reg.desc, expr)
	}
	return info, nil
}

// bind parses and binds one expression, enforcing the scalar-result
// contract a PAPI event carries.
func (c *Component) bind(expr string) (*metricql.Expr, *metricql.Query, error) {
	ex, err := metricql.Parse(expr)
	if err != nil {
		return nil, nil, err
	}
	q, err := c.engine.Bind(ex)
	if err != nil {
		return nil, nil, err
	}
	v, err := q.Width()
	if err != nil {
		return nil, nil, err
	}
	if v > 1 {
		return nil, nil, fmt.Errorf("expression is a vector of %d; aggregate it (sum/avg/...) to use as an event", v)
	}
	return ex, q, nil
}

// NewCounters implements papi.Component.
func (c *Component) NewCounters(natives []string) (papi.Counters, error) {
	qs := make([]*metricql.Query, len(natives))
	for i, n := range natives {
		expr, _, _ := c.resolve(n)
		_, q, err := c.bind(expr)
		if err != nil {
			return nil, fmt.Errorf("%w: derived %q: %v", papi.ErrNoEvent, n, err)
		}
		qs[i] = q
	}
	return &counters{engine: c.engine, read: &c.read, qs: qs}, nil
}

type counters struct {
	engine *metricql.Engine
	read   *sync.Mutex // the component's: counters share its engine
	qs     []*metricql.Query
	closed bool
}

// ReadAt implements papi.Counters: one coalesced engine evaluation for
// every expression in the set. Like the pcp component, the daemon's
// last collection tick decides the sampling instant, not t. Expression
// values are floats; they are clamped to non-negative and rounded to
// the nearest integer to fit PAPI's uint64 counter read (a NaN from
// 0/0 reads as 0).
func (s *counters) ReadAt(t simtime.Time) ([]uint64, error) {
	if s.closed {
		return nil, fmt.Errorf("derived: counters closed")
	}
	_ = t
	s.read.Lock()
	defer s.read.Unlock()
	vals, err := s.engine.EvalAll(s.qs...)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(vals))
	for i, v := range vals {
		x, err := v.Scalar()
		if err != nil {
			return nil, fmt.Errorf("derived: %w", err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			x = 0
		}
		out[i] = uint64(x + 0.5)
	}
	return out, nil
}

func (s *counters) Close() error {
	s.closed = true
	return nil
}
