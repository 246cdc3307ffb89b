package core

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
)

// runCounted runs BKRUS on a standalone counter set (NewCounters(nil)),
// the per-run view: no registry, nothing else counts into it.
func runCounted(in *inst.Instance, b Bounds) (*graph.Tree, *Counters, error) {
	c := NewCounters(nil)
	t, err := BKRUSBuild(context.Background(), in, b, Config{Counters: c})
	return t, c, err
}

// loads reads every counter of c, in declaration order.
func loads(c *Counters) [8]int64 {
	return [8]int64{
		c.EdgesExamined.Load(), c.CycleRejections.Load(), c.BoundRejections.Load(), c.LemmaRejections.Load(),
		c.Merges.Load(), c.WitnessScans.Load(), c.StreamBatches.Load(), c.StreamFallbacks.Load(),
	}
}

// BKRUSBuild with counters resolved in a registry scope must produce
// the same tree as BKRUSBounds and record exactly the counts a
// standalone counter set records for the same instance.
func TestBKRUSBuildCountersMatchWithStats(t *testing.T) {
	in := bench.P3()
	b := UpperOnly(in, 0.25)

	plain, err := BKRUSBounds(in, b)
	if err != nil {
		t.Fatal(err)
	}
	_, alone, err := runCounted(in, b)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	sc := reg.Scope(ScopeName)
	c := NewCounters(sc)
	observed, err := BKRUSBuild(context.Background(), in, b, Config{Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if observed.Cost() != plain.Cost() || len(observed.Edges) != len(plain.Edges) {
		t.Errorf("observed tree differs: cost %v vs %v", observed.Cost(), plain.Cost())
	}
	if got, want := loads(c), loads(alone); got != want {
		t.Errorf("registry counters %v differ from standalone %v", got, want)
	}
	if got := c.Merges.Load(); got != int64(in.N()-1) {
		t.Errorf("merges = %d, want %d", got, in.N()-1)
	}
	if c.EdgesExamined.Load() == 0 || c.WitnessScans.Load() == 0 {
		t.Errorf("hot-path counters empty: %v", loads(c))
	}
}

// A pooled Scratch must yield byte-identical trees across reuse, across
// differing instances, and across bound windows.
func TestBKRUSBuildScratchReuse(t *testing.T) {
	var s Scratch
	ctx := context.Background()
	for _, in := range []*struct {
		name string
		eps  float64
	}{{"p3", 0.1}, {"p3", 0.4}, {"p4", 0.2}, {"p3", 0.1}} {
		inst, ok := bench.ByName(in.name)
		if !ok {
			t.Fatalf("unknown fixture %q", in.name)
		}
		b := UpperOnly(inst, in.eps)
		want, err := BKRUSBounds(inst, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BKRUSBuild(ctx, inst, b, Config{Scratch: &s})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Edges) != len(want.Edges) {
			t.Fatalf("%s eps=%g: edge count %d vs %d", in.name, in.eps, len(got.Edges), len(want.Edges))
		}
		for i := range got.Edges {
			if got.Edges[i] != want.Edges[i] {
				t.Fatalf("%s eps=%g: edge %d differs: %v vs %v", in.name, in.eps, i, got.Edges[i], want.Edges[i])
			}
		}
	}
}

// With a default registry installed, plain BKRUS accumulates into its
// core scope; a standalone counter set stays per-run isolated.
func TestDefaultRegistryPickup(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	in := bench.P4()
	if _, err := BKRUS(in, 0.2); err != nil {
		t.Fatal(err)
	}
	merges := reg.Scope(ScopeName).Counter(CtrMerges).Load()
	if merges != int64(in.N()-1) {
		t.Errorf("default scope merges = %d, want %d", merges, in.N()-1)
	}

	// Two more runs accumulate.
	if _, err := BKRUS(in, 0.2); err != nil {
		t.Fatal(err)
	}
	if got := reg.Scope(ScopeName).Counter(CtrMerges).Load(); got != 2*merges {
		t.Errorf("counters did not accumulate: %d vs %d", got, 2*merges)
	}

	// A standalone counter set isolates its run: the default scope must
	// not move.
	before := reg.Scope(ScopeName).Counter(CtrEdgesExamined).Load()
	_, c, err := runCounted(in, UpperOnly(in, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Merges.Load(); got != int64(in.N()-1) {
		t.Errorf("standalone merges = %d", got)
	}
	if after := reg.Scope(ScopeName).Counter(CtrEdgesExamined).Load(); after != before {
		t.Errorf("standalone run leaked into the default scope: %d -> %d", before, after)
	}
}

// TestRefreshGaugeRetired pins that the retired refresh_workers gauge
// is no longer recorded: the per-merge refresh is serial, so a
// construction leaves no such gauge in its scope.
func TestRefreshGaugeRetired(t *testing.T) {
	in := bench.P3()
	reg := obs.NewRegistry()
	if _, err := BKRUSBuild(context.Background(), in, UpperOnly(in, 0.2), Config{Counters: NewCounters(reg.Scope(ScopeName))}); err != nil {
		t.Fatal(err)
	}
	for _, sc := range reg.Snapshot().Scopes {
		for _, g := range sc.Gauges {
			if g.Name == GaugeRefreshWorkers {
				t.Errorf("scope %s records gauge %s = %g", sc.Name, g.Name, g.Value)
			}
		}
	}
}
