package baseline_test

import (
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Engine bprim and brbc builds must feed the default registry's
// baseline scope when one is installed, and still work when none is.
func TestBaselineDefaultRegistryPickup(t *testing.T) {
	in := bench.P3()

	// No registry: nothing to record into, still works.
	if _, err := engine.Build(context.Background(), "bprim", in, engine.Params{Eps: 0.3}); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	for _, name := range []string{"bprim", "brbc"} {
		if _, err := engine.Build(context.Background(), name, in, engine.Params{Eps: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Scope(baseline.ScopeName).Counter(baseline.CtrBPRIMRelaxScans).Load() == 0 {
		t.Error("default baseline scope saw no bprim relax scans")
	}
}
