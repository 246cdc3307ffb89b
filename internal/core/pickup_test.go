package core_test

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// With Params.Obs unset the engine resolves the core scope from the
// process default registry and passes its counters to BKRUSBuild: runs
// accumulate there, and a build with Params.Obs set leaves the default
// registry untouched.
func TestDefaultRegistryPickup(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	in := bench.P4()
	merges := reg.Scope(core.ScopeName).Counter(core.CtrMerges)
	for run := int64(1); run <= 2; run++ {
		if _, err := engine.Build(context.Background(), "bkrus", in, engine.Params{Eps: 0.2}); err != nil {
			t.Fatal(err)
		}
		if got := merges.Load(); got != run*int64(in.N()-1) {
			t.Errorf("after %d bkrus builds the default core scope has %d merges, want %d", run, got, run*int64(in.N()-1))
		}
	}

	before := merges.Load()
	own := obs.NewRegistry()
	if _, err := engine.Build(context.Background(), "bkrus", in, engine.Params{Eps: 0.2, Obs: own}); err != nil {
		t.Fatal(err)
	}
	if got := own.Scope(core.ScopeName).Counter(core.CtrMerges).Load(); got != int64(in.N()-1) {
		t.Errorf("Params.Obs core scope has %d merges, want %d", got, in.N()-1)
	}
	if after := merges.Load(); after != before {
		t.Errorf("a build with Params.Obs leaked into the default registry: %d -> %d merges", before, after)
	}
}
