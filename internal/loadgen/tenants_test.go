package loadgen

import (
	"strings"
	"testing"

	"papimc/internal/pmproxy"
)

// TestRunTenantsShedAccounting drives two tenant streams at a
// QoS-enabled proxy: the quota'd tenant completes every op with zero
// sheds, the quota-less tenant is fully shed — and sheds are counted
// apart from errors, because a shed is the tier working as configured.
func TestRunTenantsShedAccounting(t *testing.T) {
	_, addr := testDaemon(t)
	p := pmproxy.New(pmproxy.Config{
		Upstream: addr,
		Admission: pmproxy.AdmissionConfig{
			Policy:  "token-bucket",
			Tenants: map[uint32]pmproxy.TenantConfig{1: {Rate: 1e9}},
			Default: pmproxy.TenantConfig{Rate: 0},
		},
	})
	paddr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	opts := Options{Ops: 50, PMIDs: []uint32{1, 2}}
	results, err := RunTenants([]TenantLoad{
		{Name: "gold", Tenant: 1, Factory: DialFactory(paddr, 1), Opts: opts},
		{Tenant: 2, Factory: DialFactory(paddr, 2), Opts: opts},
	})
	if err != nil {
		t.Fatal(err)
	}
	gold, starved := results[0], results[1]
	if gold.Name != "gold" || gold.Ops != 50 || gold.Shed != 0 || gold.Errors != 0 {
		t.Errorf("gold result = %+v, want 50 ops, 0 sheds, 0 errors", gold.Result)
	}
	if starved.Name != "tenant-2" || starved.Shed != 50 || starved.Ops != 0 || starved.Errors != 0 {
		t.Errorf("quota-less result = %+v, want 50 sheds, 0 ops, 0 errors", starved.Result)
	}
	if got := p.TenantStatsFor(2); got.Shed != 50 {
		t.Errorf("proxy counted %d sheds for tenant 2, want 50", got.Shed)
	}

	rep := TenantReport(results)
	for _, want := range []string{"sheds", "gold", "tenant-2"} {
		if !strings.Contains(rep, want) {
			t.Errorf("tenant report missing %q:\n%s", want, rep)
		}
	}
}
