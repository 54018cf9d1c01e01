package chaos

import (
	"strings"
	"testing"

	"papimc/internal/leakcheck"
	"papimc/internal/pmproxy"
)

// TestOverloadPolicies runs the full overload trial for every
// admission policy: the protecting policies must hold the QoS bound,
// the control arm must collapse, and reject-all must drain — each with
// exact per-tenant conservation and typed sheds throughout. A failure
// prints the deterministic report and the one-command repro line.
func TestOverloadPolicies(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	for _, policy := range pmproxy.PolicyNames() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			o := OverloadOptions{Seed: 0x0507, Policy: policy, Trials: 2, Trial: -1}
			rep, err := RunOverload(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range rep.Trials {
				if len(tr.Violations) > 0 {
					t.Errorf("trial %d violated invariants; repro: %s\n%s",
						tr.Index, OverloadReproLine(o, tr.Index), rep.String())
					break
				}
			}
		})
	}
}

// TestOverloadReproducible pins byte-reproducibility: the same seed
// yields the identical report string at different worker counts.
func TestOverloadReproducible(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	o := OverloadOptions{Seed: 7, Policy: "token-bucket", Trials: 2, Trial: -1}
	o.Workers = 1
	a, err := RunOverload(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	b, err := RunOverload(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("overload report not reproducible:\n--- workers=1\n%s--- workers=4\n%s", a.String(), b.String())
	}
	if a.Failed() {
		t.Errorf("seed 7 trial violated invariants:\n%s", a.String())
	}
	for _, want := range []string{"policy=token-bucket", "gold", "silver", "bronze", "p99x="} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("report missing %q:\n%s", want, a.String())
		}
	}
}

// TestOverloadSingleTrialReplay pins the repro path: replaying trial 1
// alone reproduces exactly trial 1's line from the full sweep.
func TestOverloadSingleTrialReplay(t *testing.T) {
	leakcheck.NoGoroutineLeak(t)
	full, err := RunOverload(OverloadOptions{Seed: 11, Policy: "priority", Trials: 2, Trial: -1})
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunOverload(OverloadOptions{Seed: 11, Policy: "priority", Trials: 2, Trial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Trials) != 2 || len(one.Trials) != 1 {
		t.Fatalf("trial counts = %d and %d, want 2 and 1", len(full.Trials), len(one.Trials))
	}
	wantRep := (&Report[OverloadTrial]{Trials: full.Trials[1:]}).String()
	if got := one.String(); got != wantRep {
		t.Errorf("single-trial replay diverged:\n--- sweep trial 1\n%s--- replay\n%s", wantRep, got)
	}
}

// TestOverloadUnknownPolicy pins the validation path: a bad policy
// name is a harness error naming the registered policies, not a panic.
func TestOverloadUnknownPolicy(t *testing.T) {
	_, err := RunOverload(OverloadOptions{Policy: "nope", Trial: -1})
	if err == nil || !strings.Contains(err.Error(), "unknown admission policy") {
		t.Fatalf("err = %v, want unknown-policy error", err)
	}
}
