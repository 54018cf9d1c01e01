// Targets: where the engine's requests go. A Target is a service model
// in virtual time — SimTarget, the k-server queue every capacity report
// stands on, or a test's stand-in. Real fetches against a real tier are
// internal/loadgen's side of the split.
package workload

import (
	"papimc/internal/simtime"
	"papimc/internal/sweep"
	"papimc/internal/xrand"
)

// Request is one generated query, fully determined by the spec and seed.
type Request struct {
	T      simtime.Time // scheduled (virtual) arrival
	Seq    int64        // global issue-order sequence number
	Cohort int
	Class  Class
	Size   int // metrics touched
}

// Outcome is a completed request in the model: the virtual-time latency
// the Target computed from the scheduled arrival Request.T, time queued
// behind earlier requests included, and whether the request failed. It
// is a model's answer, never a measurement — wall-clock latencies come
// from loadgen, which measures them from the scheduled arrival too.
type Outcome struct {
	Lat int64 // virtual nanoseconds from Request.T to completion
	Err bool
}

// Target executes one request.
type Target interface {
	Do(req Request) Outcome
}

// targetSub is the sweep.Seed substream index reserved for the service
// model, far above any cohort index so client streams never collide.
const targetSub = 1 << 20

// SimTarget is the deterministic service model: a bank of Servers
// parallel service slots fed in arrival order. A request entering at T
// starts on the earliest-free slot (queueing delay if all are busy) and
// holds it for a service time proportional to its size, with bounded
// uniform jitter drawn from the target's own seed substream in issue
// order — so a replayed trace, issuing the same requests in the same
// order, reproduces every latency bit-exact.
type SimTarget struct {
	spec ServerSpec
	rng  *xrand.Source
	busy []int64 // per-slot busy-until, virtual ns
}

// NewSimTarget builds the service model for a validated spec.
func NewSimTarget(spec *Spec) *SimTarget {
	return &SimTarget{
		spec: spec.Server,
		rng:  xrand.New(sweep.Seed(spec.Seed, targetSub)),
		busy: make([]int64, spec.Server.Servers),
	}
}

// Do implements Target.
func (st *SimTarget) Do(req Request) Outcome {
	best := 0
	for i := 1; i < len(st.busy); i++ {
		if st.busy[i] < st.busy[best] {
			best = i
		}
	}
	start := int64(req.T)
	if st.busy[best] > start {
		start = st.busy[best]
	}
	svc := float64(st.spec.Base) * float64(req.Size) / st.spec.SizeRef
	if j := st.spec.Jitter; j > 0 {
		svc *= 1 + j*(2*st.rng.Float64()-1)
	}
	if svc < 1 {
		svc = 1
	}
	done := start + int64(svc)
	st.busy[best] = done
	return Outcome{Lat: done - int64(req.T)}
}
