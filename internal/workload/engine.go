// The discrete-event engine: a binary min-heap of per-client arrival
// candidates over virtual time. Every client is a state machine with its
// own sweep.Seed2 substream; candidates arrive at the cohort's envelope
// rate and are accepted by thinning against the momentary rate curve, so
// arrivals form a non-homogeneous Poisson process per cohort while every
// draw stays deterministic.
//
// The package owns virtual time and nothing else: no socket, no wall
// clock. The heap loop is a pull iterator (Arrivals) that Run drains
// through a Target as fast as it yields — which is what lets a laptop
// simulate a million concurrent clients faster than real time — and
// that a wall-clock executor (internal/loadgen, glued in
// cmd/pcploadgen) can pace against a real tier instead. A recorded
// trace yields the same kind of iterator, so a trace is a schedule too.
package workload

import (
	"fmt"
	"math"

	"papimc/internal/simtime"
	"papimc/internal/stats"
	"papimc/internal/sweep"
	"papimc/internal/xrand"
)

// Options configures one workload run.
type Options struct {
	// Mult scales every cohort's rate curve (the capacity analyzer's
	// sweep axis). 0 means 1.
	Mult float64
	// Target overrides the service model. Nil means NewSimTarget(spec).
	Target Target
	// Record, when non-nil, receives every issued request as a trace row.
	Record *Trace
}

// CohortResult is one cohort's accounting in a report.
type CohortResult struct {
	Name      string            `json:"name"`
	Clients   int               `json:"clients"`
	Arrivals  int64             `json:"arrivals"`
	Completed int64             `json:"completed"` // completion within the horizon
	Pending   int64             `json:"pending"`   // issued, completion past the horizon
	Errors    int64             `json:"errors"`
	ByClass   [NumClasses]int64 `json:"by_class"`
	P50       int64             `json:"p50_ns"`
	P90       int64             `json:"p90_ns"`
	P99       int64             `json:"p99_ns"`
	P999      int64             `json:"p999_ns"`
	MaxLat    int64             `json:"max_ns"`
}

// Report is one run's result: per-cohort and total accounting plus the
// saturation ratio the capacity analyzer keys on. Every field is
// bit-identical across runs with the same spec and seed.
type Report struct {
	Name    string           `json:"name"`
	Seed    uint64           `json:"seed"`
	Mult    float64          `json:"mult"`
	Horizon simtime.Duration `json:"horizon_ns"`
	Cohorts []CohortResult   `json:"cohorts"`
	Total   CohortResult     `json:"total"`
	// Offered is the accepted arrival rate over the horizon; Achieved
	// counts only completions inside the horizon; their Ratio dropping
	// below 1 is the first knee signal.
	Offered  float64 `json:"offered_per_sec"`
	Achieved float64 `json:"achieved_per_sec"`
	Ratio    float64 `json:"ratio"`
	Events   int64   `json:"events"` // candidates processed by the event loop
}

// event is one pending arrival candidate, ordered by (t, cohort, client)
// so heap order — and therefore every downstream draw — is deterministic.
type event struct {
	t      int64
	cohort int32
	client int32
}

func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.cohort != b.cohort {
		return a.cohort < b.cohort
	}
	return a.client < b.client
}

// eventHeap is a hand-rolled binary min-heap: the loop runs millions of
// push/pop pairs, so we avoid container/heap's interface boxing.
type eventHeap struct{ ev []event }

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h.ev[i], h.ev[p]) {
			break
		}
		h.ev[i], h.ev[p] = h.ev[p], h.ev[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.ev)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(h.ev[l], h.ev[small]) {
			small = l
		}
		if r < n && eventLess(h.ev[r], h.ev[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.ev[i], h.ev[small] = h.ev[small], h.ev[i]
		i = small
	}
}

func (h *eventHeap) init() {
	for i := len(h.ev)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// cohortGen is a cohort's precomputed generation state.
type cohortGen struct {
	spec      *CohortSpec
	srcs      []xrand.Source // one substream per client
	envelope  float64
	invRateNs float64 // mean candidate inter-arrival per client, ns
	cumMix    [NumClasses]float64
	sizeMin   float64
	sizeInvA  float64 // 1/alpha, 0 for fixed size
	sizeMax   float64
}

func newCohortGen(spec *Spec, ci int, mult float64) *cohortGen {
	c := &spec.Cohorts[ci]
	g := &cohortGen{spec: c, envelope: c.envelope()}
	peak := c.Rate * mult * g.envelope / float64(c.Clients)
	g.invRateNs = 1e9 / peak
	w := c.Mix.weights()
	total := c.Mix.total()
	cum := 0.0
	for i := range w {
		cum += w[i] / total
		g.cumMix[i] = cum
	}
	g.cumMix[NumClasses-1] = 1 // guard against float residue
	g.sizeMin = float64(c.Size.Min)
	g.sizeMax = float64(c.Size.Max)
	if c.Size.Alpha > 0 {
		g.sizeInvA = 1 / c.Size.Alpha
	}
	g.srcs = make([]xrand.Source, c.Clients)
	for j := range g.srcs {
		g.srcs[j] = *xrand.New(sweep.Seed2(spec.Seed, ci, j))
	}
	return g
}

// next draws client j's next candidate delay in ns (exponential at the
// envelope rate).
func (g *cohortGen) next(j int) int64 {
	d := g.srcs[j].ExpFloat64() * g.invRateNs
	if d < 1 {
		d = 1
	}
	if d > math.MaxInt64/2 {
		d = math.MaxInt64 / 2
	}
	return int64(d)
}

// accept thins the candidate at time t against the momentary rate curve.
func (g *cohortGen) accept(j int, t simtime.Time) bool {
	return g.srcs[j].Float64()*g.envelope < g.spec.modulation(t)
}

// draw samples the request class and heavy-tailed size from the client's
// substream.
func (g *cohortGen) draw(j int) (Class, int) {
	u := g.srcs[j].Float64()
	class := Class(0)
	for class < NumClasses-1 && u > g.cumMix[class] {
		class++
	}
	size := g.sizeMin
	if g.sizeInvA > 0 {
		v := g.srcs[j].Float64()
		if v < 1e-12 {
			v = 1e-12
		}
		size = g.sizeMin * math.Pow(v, -g.sizeInvA)
	}
	if size > g.sizeMax {
		size = g.sizeMax
	}
	return class, int(size)
}

// generator is the spec's arrival stream: the event heap plus every
// cohort's client state machines.
type generator struct {
	gens    []*cohortGen
	heap    eventHeap
	horizon int64
	seq     int64
	events  int64 // candidates popped, thinned ones included
}

// newGenerator seeds the heap with every client's first candidate. The
// spec must be validated and mult positive.
func newGenerator(spec *Spec, mult float64) *generator {
	g := &generator{gens: make([]*cohortGen, len(spec.Cohorts)), horizon: int64(spec.Duration)}
	for ci := range spec.Cohorts {
		g.gens[ci] = newCohortGen(spec, ci, mult)
		for j := 0; j < spec.Cohorts[ci].Clients; j++ {
			if t := g.gens[ci].next(j); t <= g.horizon {
				g.heap.ev = append(g.heap.ev, event{t: t, cohort: int32(ci), client: int32(j)})
			}
		}
	}
	g.heap.init()
	return g
}

// next pops candidates until one survives thinning and returns it as the
// next request. Every draw on a client's substream happens in the order
// accept, class and size, next delay, whatever the caller does with the
// request in between.
func (g *generator) next() (Request, bool) {
	for len(g.heap.ev) > 0 {
		ev := g.heap.pop()
		g.events++
		cg, j := g.gens[ev.cohort], int(ev.client)
		accepted := cg.accept(j, simtime.Time(ev.t))
		var req Request
		if accepted {
			class, size := cg.draw(j)
			req = Request{T: simtime.Time(ev.t), Seq: g.seq, Cohort: int(ev.cohort), Class: class, Size: size}
			g.seq++
		}
		if t := ev.t + cg.next(j); t <= g.horizon {
			g.heap.push(event{t: t, cohort: ev.cohort, client: ev.client})
		}
		if accepted {
			return req, true
		}
	}
	return Request{}, false
}

// Arrivals expands the spec into its deterministic request stream at
// rate multiplier mult (0 means 1) and returns it as a pull iterator:
// each call yields the next request — T nondecreasing, Seq counting from
// 0 — until ok is false at the spec's horizon. Run drains exactly this
// iterator through a Target; a wall-clock executor paces it instead.
func Arrivals(spec *Spec, mult float64) (func() (Request, bool), error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if mult <= 0 {
		mult = 1
	}
	return newGenerator(spec, mult).next, nil
}

// Arrivals is the recorded schedule as the iterator Arrivals returns for
// a spec: the rows' arrival time, cohort, class and size in issue order,
// outcomes left behind.
func (tr *Trace) Arrivals() func() (Request, bool) {
	i := 0
	return func() (Request, bool) {
		if i == len(tr.Rows) {
			return Request{}, false
		}
		r := &tr.Rows[i]
		req := Request{T: simtime.Time(r.T), Seq: int64(i), Cohort: int(r.Cohort), Class: r.Class, Size: int(r.Size)}
		i++
		return req, true
	}
}

// engine carries one run's accounting; Run and Replay both drain their
// iterator through it.
type engine struct {
	spec    *Spec
	mult    float64
	horizon int64
	target  Target
	rec     *Trace
	acc     []cohortAcc
}

type cohortAcc struct {
	arrivals, completed, pending, errs int64
	byClass                            [NumClasses]int64
	hist                               stats.Histogram
}

func newEngine(spec *Spec, o Options) *engine {
	e := &engine{
		spec:    spec,
		mult:    o.Mult,
		horizon: int64(spec.Duration),
		target:  o.Target,
		rec:     o.Record,
		acc:     make([]cohortAcc, len(spec.Cohorts)),
	}
	if e.mult <= 0 {
		e.mult = 1
	}
	if e.rec != nil {
		e.rec.Spec = spec.Name
		e.rec.Seed = spec.Seed
		e.rec.Mult = e.mult
		e.rec.Horizon = e.horizon
		e.rec.Cohorts = e.rec.Cohorts[:0]
		for i := range spec.Cohorts {
			e.rec.Cohorts = append(e.rec.Cohorts, spec.Cohorts[i].Name)
		}
		e.rec.Rows = e.rec.Rows[:0]
	}
	if e.target == nil {
		e.target = NewSimTarget(spec)
	}
	return e
}

// run drains the iterator through the target and assembles the report.
func (e *engine) run(next func() (Request, bool)) *Report {
	for req, ok := next(); ok; req, ok = next() {
		e.complete(req, e.target.Do(req))
	}
	return e.finish()
}

// complete records one outcome.
func (e *engine) complete(req Request, out Outcome) {
	a := &e.acc[req.Cohort]
	a.arrivals++
	a.byClass[req.Class]++
	status := uint8(0)
	if out.Err {
		a.errs++
		status = 1
	}
	if int64(req.T)+out.Lat <= e.horizon {
		a.completed++
		a.hist.Record(out.Lat)
	} else {
		a.pending++
	}
	if e.rec != nil {
		e.rec.Rows = append(e.rec.Rows, Row{
			T: int64(req.T), Seq: req.Seq, Cohort: uint32(req.Cohort),
			Class: req.Class, Size: uint32(req.Size), Lat: out.Lat, Status: status,
		})
	}
}

func (e *engine) finish() *Report {
	rep := &Report{
		Name:    e.spec.Name,
		Seed:    e.spec.Seed,
		Mult:    e.mult,
		Horizon: simtime.Duration(e.horizon),
	}
	var total cohortAcc
	qs := []float64{0.5, 0.9, 0.99, 0.999}
	for i := range e.acc {
		a := &e.acc[i]
		cr := cohortResult(e.spec.Cohorts[i].Name, e.spec.Cohorts[i].Clients, a, qs)
		rep.Cohorts = append(rep.Cohorts, cr)
		total.arrivals += a.arrivals
		total.completed += a.completed
		total.pending += a.pending
		total.errs += a.errs
		for c := range a.byClass {
			total.byClass[c] += a.byClass[c]
		}
		total.hist.Merge(&a.hist)
	}
	rep.Total = cohortResult("total", e.spec.TotalClients(), &total, qs)
	secs := simtime.Duration(e.horizon).Seconds()
	if secs > 0 {
		rep.Offered = float64(total.arrivals) / secs
		rep.Achieved = float64(total.completed) / secs
	}
	rep.Ratio = 1
	if total.arrivals > 0 {
		rep.Ratio = float64(total.completed) / float64(total.arrivals)
	}
	return rep
}

func cohortResult(name string, clients int, a *cohortAcc, qs []float64) CohortResult {
	q := a.hist.Quantiles(qs)
	return CohortResult{
		Name: name, Clients: clients,
		Arrivals: a.arrivals, Completed: a.completed, Pending: a.pending, Errors: a.errs,
		ByClass: a.byClass,
		P50:     int64(q[0]), P90: int64(q[1]), P99: int64(q[2]), P999: int64(q[3]),
		MaxLat: a.hist.Max(),
	}
}

// Run expands the spec into its request stream and executes it in
// virtual time. The run is deterministic: byte-identical reports (and
// traces) across runs with the same spec and seed.
func Run(spec *Spec, o Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := newEngine(spec, o)
	g := newGenerator(spec, e.mult)
	rep := e.run(g.next)
	rep.Events = g.events
	return rep, nil
}

// Replay re-issues a recorded trace: the schedule comes from the trace
// rows instead of the client state machines, everything downstream —
// target, accounting, re-recording — is the code Run uses. Replaying a
// trace against the spec that recorded it reproduces the original run's
// result stream bit-exact.
func Replay(tr *Trace, spec *Spec, o Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(tr.Cohorts) != len(spec.Cohorts) {
		return nil, fmt.Errorf("workload: trace has %d cohorts, spec %d", len(tr.Cohorts), len(spec.Cohorts))
	}
	for i := range tr.Cohorts {
		if tr.Cohorts[i] != spec.Cohorts[i].Name {
			return nil, fmt.Errorf("workload: trace cohort %d is %q, spec has %q", i, tr.Cohorts[i], spec.Cohorts[i].Name)
		}
	}
	for i := range tr.Rows {
		if int(tr.Rows[i].Cohort) >= len(spec.Cohorts) {
			return nil, fmt.Errorf("workload: trace row %d names cohort %d of %d", i, tr.Rows[i].Cohort, len(spec.Cohorts))
		}
	}
	if o.Mult == 0 {
		o.Mult = tr.Mult
	}
	replaySpec := *spec
	replaySpec.Seed = tr.Seed
	if tr.Horizon > 0 {
		replaySpec.Duration = simtime.Duration(tr.Horizon)
	}
	rep := newEngine(&replaySpec, o).run(tr.Arrivals())
	rep.Events = int64(len(tr.Rows))
	return rep, nil
}
