package pmproxy

import (
	"errors"
	"fmt"
	"sync"

	"papimc/internal/pcp"
)

// ErrAdmissionRejected is the typed rejection every shed request fails
// with: the proxy is up but chose not to serve this request now. It
// wraps pcp.ErrOverload, so one errors.Is check classifies a shed both
// in-process and over the wire (where it travels as a PDUStatusError
// carrying pcp.StatusOverload).
var ErrAdmissionRejected = fmt.Errorf("pmproxy: admission rejected: %w", pcp.ErrOverload)

// DefaultTenant is the tenant requests carry when the client never set
// one (lockstep Version1 peers, or in-process callers using Fetch).
const DefaultTenant uint32 = 0

// AdmitRequest is one admission decision's input: who is asking, how
// much upstream work the request represents, and when (proxy timebase,
// nanoseconds — virtual time under a simtime clock, so policies must
// derive all timing from Now, never the wall clock).
type AdmitRequest struct {
	Tenant uint32
	// Cost is the upstream work the request represents: 1 for a single
	// fetch, the number of distinct miss groups for a batch.
	Cost int
	// Priority is the resolved tenant priority, 0 (highest) to 3.
	Priority int
	Now      int64
}

// Policy decides whether a request may proceed to the upstream. A nil
// return admits; a non-nil return must wrap ErrAdmissionRejected so the
// shed stays typed end to end. Implementations must be safe for
// concurrent use and deterministic given the AdmitRequest (all timing
// comes from Now).
type Policy interface {
	Admit(req AdmitRequest) error
}

// TenantConfig is the per-tenant quota and scheduling configuration.
type TenantConfig struct {
	// Rate is the token-bucket refill rate in requests/sec. Zero means
	// the tenant has no quota of its own: under the token-bucket policy
	// a zero-rate tenant is always shed.
	Rate float64
	// Burst is the bucket depth; it defaults to max(Rate, 1) so a tenant
	// can always spend about one second of its quota at once.
	Burst float64
	// Weight is the tenant's weighted-fair-queueing share (default 1):
	// a weight-2 tenant drains its queue twice as fast as a weight-1
	// tenant when both are backlogged.
	Weight float64
	// Priority ranks the tenant for the priority policy: 0 (highest,
	// shed last) through 3 (lowest, shed first). Values outside that
	// range are clamped.
	Priority int
	// Degradable marks the tenant's queries as tolerating staleness:
	// when admission sheds a degradable request and a cached answer
	// exists, the proxy serves the stale answer instead of rejecting.
	Degradable bool
}

// AdmissionConfig wires an admission policy and its tenant table into a
// Proxy.
type AdmissionConfig struct {
	// Policy names the admission policy: "always-admit",
	// "token-bucket", "priority", "reject-all". Empty
	// disables admission control entirely (no policy, no queue — the
	// pre-admission fast path).
	Policy string
	// Tenants maps tenant IDs to their quotas. Tenants not present use
	// Default.
	Tenants map[uint32]TenantConfig
	// Default is the configuration for tenants absent from Tenants.
	Default TenantConfig
	// Capacity is the provisioned upstream capacity in requests/sec,
	// used by the priority policy's utilization shedder. Zero disables
	// priority shedding (everything admits).
	Capacity float64
	// QueueDepth bounds each tenant's fair-queue backlog; a request
	// arriving with the tenant's queue full is shed immediately. Zero
	// means 64.
	QueueDepth int
	// MaxConcurrent caps concurrent upstream operations across all
	// tenants (the fair queue's service slots). Zero means the proxy's
	// PoolSize.
	MaxConcurrent int
}

// tenant returns the effective configuration for a tenant.
func (c *AdmissionConfig) tenant(id uint32) TenantConfig {
	if tc, ok := c.Tenants[id]; ok {
		return tc
	}
	return c.Default
}

// priority returns the tenant's clamped priority.
func (c *AdmissionConfig) priority(id uint32) int {
	p := c.tenant(id).Priority
	if p < 0 {
		return 0
	}
	if p > 3 {
		return 3
	}
	return p
}

// weight returns the tenant's WFQ weight, defaulting to 1.
func (c *AdmissionConfig) weight(id uint32) float64 {
	if w := c.tenant(id).Weight; w > 0 {
		return w
	}
	return 1
}

// NewPolicy builds the named admission policy, or an error naming the
// known policies if the name is unknown.
func NewPolicy(name string, cfg AdmissionConfig) (Policy, error) {
	switch name {
	case "always-admit":
		return alwaysAdmit{}, nil
	case "priority":
		return newPriorityShedder(cfg), nil
	case "reject-all":
		return rejectAll{}, nil
	case "token-bucket":
		return newTokenBucket(cfg), nil
	}
	return nil, fmt.Errorf("pmproxy: unknown admission policy %q (have %v)", name, PolicyNames())
}

// PolicyNames lists the admission policies, sorted.
func PolicyNames() []string {
	return []string{"always-admit", "priority", "reject-all", "token-bucket"}
}

// alwaysAdmit is the no-op policy: every request proceeds. It exists so
// the full admission plumbing (tenant accounting, fair queueing,
// breakers) can run with shedding disabled — the control arm of an
// overload experiment.
type alwaysAdmit struct{}

func (alwaysAdmit) Admit(AdmitRequest) error { return nil }

// rejectAll sheds everything: the drain/maintenance policy, and the
// degenerate case unit tests pin down.
type rejectAll struct{}

func (rejectAll) Admit(AdmitRequest) error {
	return fmt.Errorf("%w: policy reject-all", ErrAdmissionRejected)
}

// tokenBucket enforces per-tenant rate quotas: each tenant holds a
// bucket refilled at Rate tokens/sec up to Burst, and a request costing
// more tokens than the bucket holds is shed. All refill timing derives
// from AdmitRequest.Now, so the policy is exact under virtual time and
// its concurrent behaviour has a counting oracle: at a frozen clock a
// burst-B bucket admits exactly floor(B) cost-1 requests.
type tokenBucket struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	buckets map[uint32]*bucket
}

type bucket struct {
	level float64
	last  int64 // Now of the last refill
}

func newTokenBucket(cfg AdmissionConfig) Policy {
	return &tokenBucket{cfg: cfg, buckets: make(map[uint32]*bucket)}
}

func (t *tokenBucket) Admit(req AdmitRequest) error {
	tc := t.cfg.tenant(req.Tenant)
	if tc.Rate <= 0 {
		return fmt.Errorf("%w: tenant %d has no quota", ErrAdmissionRejected, req.Tenant)
	}
	burst := tc.Burst
	if burst <= 0 {
		burst = tc.Rate
		if burst < 1 {
			burst = 1
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.buckets[req.Tenant]
	if !ok {
		// A new bucket starts full: the tenant can spend its burst
		// immediately, which is what makes refill boundaries testable.
		b = &bucket{level: burst, last: req.Now}
		t.buckets[req.Tenant] = b
	}
	if req.Now > b.last {
		b.level += tc.Rate * float64(req.Now-b.last) / 1e9
		if b.level > burst {
			b.level = burst
		}
		b.last = req.Now
	}
	cost := float64(req.Cost)
	if b.level < cost {
		return fmt.Errorf("%w: tenant %d over rate quota (%.3g tokens, need %g)",
			ErrAdmissionRejected, req.Tenant, b.level, cost)
	}
	b.level -= cost
	return nil
}

// priorityShedder sheds by priority under load: a shared leaky bucket
// tracks recent demand (draining at Capacity requests/sec, again purely
// from Now), and a request admits only while the backlog level is below
// its priority's share of the bucket — priority 0 may fill the whole
// bucket, priority 3 only the first quarter. As offered load pushes the
// level up, low priorities shed first and the highest priority sheds
// last, which is exactly the inversion-free ordering the unit tests
// pin.
type priorityShedder struct {
	cfg   AdmissionConfig
	depth float64 // bucket depth: one second of capacity

	mu    sync.Mutex
	level float64
	last  int64
}

func newPriorityShedder(cfg AdmissionConfig) Policy {
	return &priorityShedder{cfg: cfg, depth: cfg.Capacity}
}

func (p *priorityShedder) Admit(req AdmitRequest) error {
	if p.cfg.Capacity <= 0 {
		return nil // unprovisioned: nothing to shed against
	}
	prio := req.Priority
	if prio < 0 {
		prio = 0
	}
	if prio > 3 {
		prio = 3
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if req.Now > p.last {
		p.level -= p.cfg.Capacity * float64(req.Now-p.last) / 1e9
		if p.level < 0 {
			p.level = 0
		}
		p.last = req.Now
	}
	cost := float64(req.Cost)
	// Priority k may fill (4-k)/4 of the bucket: demand beyond capacity
	// raises the level until the low priorities hit their ceilings.
	ceiling := p.depth * float64(4-prio) / 4
	if p.level+cost > ceiling {
		return fmt.Errorf("%w: priority %d ceiling reached (level %.3g of %.3g)",
			ErrAdmissionRejected, prio, p.level, ceiling)
	}
	p.level += cost
	return nil
}

// IsShed reports whether err is a typed admission rejection. It is the
// check chaos trials and load generators use to separate sheds from
// real failures.
func IsShed(err error) bool { return errors.Is(err, ErrAdmissionRejected) }
