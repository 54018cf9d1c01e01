package loadgen

import (
	"fmt"
	"strings"
	"sync"
)

// TenantLoad is one tenant's stream in a multi-tenant run: its own
// generation options driven through its own factory (typically
// DialFactory with the tenant's ID, so the identity travels in-band to
// a QoS-enabled proxy).
type TenantLoad struct {
	// Name labels the stream in the report ("gold", "silver"); empty
	// means "tenant-<id>".
	Name    string
	Tenant  uint32
	Factory Factory
	Opts    Options
}

// TenantResult pairs one tenant's stream with its run result.
type TenantResult struct {
	Name   string
	Tenant uint32
	Result
}

// RunTenants executes every tenant's load stream concurrently — the
// overload shape: independent open-loop streams competing for one tier —
// and returns per-tenant results in input order. An error from any
// stream fails the run.
func RunTenants(loads []TenantLoad) ([]TenantResult, error) {
	results := make([]TenantResult, len(loads))
	errs := make([]error, len(loads))
	var wg sync.WaitGroup
	for i, l := range loads {
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("tenant-%d", l.Tenant)
		}
		results[i] = TenantResult{Name: name, Tenant: l.Tenant}
		wg.Add(1)
		go func(i int, l TenantLoad) {
			defer wg.Done()
			r, err := Run(l.Factory, l.Opts)
			if err != nil {
				errs[i] = fmt.Errorf("loadgen: tenant %q: %w", results[i].Name, err)
				return
			}
			results[i].Result = r
		}(i, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// TenantReport renders a multi-tenant run as an aligned text table, one
// row per tenant stream.
func TenantReport(results []TenantResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %5s %9s %6s %6s %12s %9s %9s %9s\n",
		"tenant", "id", "mode", "ops", "errs", "sheds", "throughput", "p50", "p99", "max")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %6d %5s %9d %6d %6d %9.0f/s %9s %9s %9s\n",
			r.Name, r.Tenant, r.Mode, r.Ops, r.Errors, r.Shed, r.Throughput,
			fmtDur(r.P50), fmtDur(r.P99), fmtDur(r.Max))
	}
	return b.String()
}
