package steiner_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/steiner"
)

// An engine bkst build must feed the default registry's steiner scope
// when one is installed.
func TestBKSTDefaultRegistryPickup(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	if _, err := engine.Build(context.Background(), "bkst", bench.P3(), engine.Params{Eps: 0.5}); err != nil {
		t.Fatal(err)
	}
	sc := reg.Scope(steiner.ScopeName)
	if sc.Counter(steiner.CtrCandidatesExamined).Load() == 0 {
		t.Error("default scope saw no candidates")
	}
	if sc.Gauge(steiner.GaugeGridNodes).Load() == 0 {
		t.Error("default scope saw no grid dimensions")
	}
}
