package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/steiner"
)

func TestRegistryCoversTheConstructionLayers(t *testing.T) {
	infos := List()
	if len(infos) < 10 {
		t.Fatalf("only %d constructors registered, want >= 10", len(infos))
	}
	kinds := map[Kind]int{}
	for _, info := range infos {
		kinds[info.Kind]++
	}
	if kinds[Spanning] == 0 || kinds[Steiner] == 0 {
		t.Errorf("registry misses a kind: %d spanning, %d steiner", kinds[Spanning], kinds[Steiner])
	}
	for _, must := range []string{"bkrus", "bkruslu", "bprim", "brbc", "ahhk", "bkh2", "bkex", "bmstg", "elmore", "bkst"} {
		if _, err := Lookup(must); err != nil {
			t.Errorf("core constructor %q missing: %v", must, err)
		}
	}
}

func TestNamesSortedAndStable(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not strictly sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

func TestLookupUnknownListsEveryName(t *testing.T) {
	_, err := Lookup("no-such-algorithm")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error does not mention %q: %v", n, err)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	build := func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		return Result{}, nil
	}
	r.Register(Info{Name: "x", Kind: Spanning}, build)
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Register(Info{Name: "x", Kind: Spanning}, build)
}

func TestKindString(t *testing.T) {
	if Spanning.String() != "spanning" || Steiner.String() != "steiner" {
		t.Errorf("kind strings: %q, %q", Spanning, Steiner)
	}
}

// An explicit Params.Obs registry must receive each layer's counters in
// its usual scope — the engine-level replacement for the old per-layer
// ...Observed entry points.
func TestParamsObsWiring(t *testing.T) {
	in := bench.P3()
	reg := obs.NewRegistry()

	if _, err := Build(context.Background(), "bkrus", in, Params{Eps: 0.2, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Scope(core.ScopeName).Counter(core.CtrEdgesExamined).Load(); got == 0 {
		t.Error("bkrus build recorded no core edge examinations")
	}

	if _, err := Build(context.Background(), "bprim", in, Params{Eps: 0.2, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Scope(baseline.ScopeName).Counter(baseline.CtrBPRIMAttachments).Load(); got == 0 {
		t.Error("bprim build recorded no baseline attachments")
	}

	if _, err := Build(context.Background(), "bkst", in, Params{Eps: 0.3, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Scope(steiner.ScopeName).Counter(steiner.CtrCandidatesExamined).Load(); got == 0 {
		t.Error("bkst build recorded no steiner candidate examinations")
	}
}

// With Obs unset the engine must preserve the layers' historical
// default-registry pickup.
func TestDefaultRegistryPickupThroughEngine(t *testing.T) {
	in := bench.P3()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	if _, err := Build(context.Background(), "bkrus", in, Params{Eps: 0.2}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Scope(core.ScopeName).Counter(core.CtrEdgesExamined).Load(); got == 0 {
		t.Error("default registry saw no core counters from an engine build")
	}
}

func TestNegativeParamsRejected(t *testing.T) {
	in := bench.P1()
	cases := []struct {
		name string
		p    Params
	}{
		{"bkrus", Params{Eps: -0.1}},
		{"bkruslu", Params{Eps1: -0.1}},
		{"bkruslu", Params{Eps2: -0.1}},
		{"bprim", Params{Eps: -1}},
		{"brbc", Params{Eps: -1}},
		{"bkh2", Params{Eps: -1}},
		{"bkex", Params{Eps: -1}},
		{"bmstg", Params{Eps: -1}},
		{"elmore", Params{Eps: -1}},
		{"bkst", Params{Eps: -1}},
		{"bkstplanar", Params{Eps: -1}},
	}
	for _, c := range cases {
		if _, err := Build(context.Background(), c.name, in, c.p); err == nil {
			t.Errorf("%s accepted negative parameters %+v", c.name, c.p)
		}
	}
}

func TestResultCost(t *testing.T) {
	in := bench.P1()
	r, err := Build(context.Background(), "mst", in, Params{})
	if err != nil {
		t.Fatal(err)
	}
	want := mst.Kruskal(in.DistMatrix()).Cost()
	if r.Cost() != want {
		t.Errorf("mst cost %v via engine, %v direct", r.Cost(), want)
	}
	if (Result{}).Cost() != 0 {
		t.Error("empty result has nonzero cost")
	}
}

// A sweep must reuse one scratch and still produce the same trees and
// the same construction counters as independent builds, and count one
// sweep_runs per cell. An empty sweep is a no-op; an unknown name is an
// TestSweepSharesOneScratch: every cell of a sweep that pins no scratch
// of its own builds on the one scratch the sweep owns, so the edge list
// is sorted once per sweep, not once per cell; a pinned scratch is left
// alone.
func TestSweepSharesOneScratch(t *testing.T) {
	r := NewRegistry()
	var got []*core.Scratch
	r.Register(Info{Name: "spy", Kind: Spanning}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		got = append(got, p.Scratch)
		return Result{Tree: mst.Kruskal(in.DistMatrix())}, nil
	})
	pinned := new(core.Scratch)
	if _, err := r.Sweep(context.Background(), "spy", bench.P1(), []Params{{}, {}, {Scratch: pinned}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] == nil || got[1] != got[0] || got[2] != pinned {
		t.Fatalf("sweep cells built on scratches %p, want one shared non-nil scratch then the pinned %p", got, pinned)
	}
}

// error.
func TestSweepMatchesIndependentBuilds(t *testing.T) {
	in := bench.P4()
	epss := []float64{0.1, 0.25, 0.4, 0.1}
	sweepReg := obs.NewRegistry()
	ps := make([]Params, len(epss))
	for i, e := range epss {
		ps[i] = Params{Eps: e, Obs: sweepReg}
	}
	swept, err := Sweep(context.Background(), "bkrus", in, ps)
	if err != nil {
		t.Fatal(err)
	}
	buildReg := obs.NewRegistry()
	for i, e := range epss {
		want, err := core.BKRUS(in, e)
		if err != nil {
			t.Fatal(err)
		}
		if got := swept[i].Tree; !sameEdges(got, want) {
			t.Errorf("sweep[%d] (eps=%g) differs from a fresh build", i, e)
		}
		if _, err := Build(context.Background(), "bkrus", in, Params{Eps: e, Obs: buildReg}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{core.CtrEdgesExamined, core.CtrMerges, core.CtrWitnessScans} {
		got := sweepReg.Scope(core.ScopeName).Counter(name).Load()
		want := buildReg.Scope(core.ScopeName).Counter(name).Load()
		if got != want {
			t.Errorf("sweep %s = %d, independent builds sum to %d", name, got, want)
		}
	}
	if got := sweepReg.Scope(ScopeName).Counter(CtrSweepRuns).Load(); got != int64(len(ps)) {
		t.Errorf("%s = %d, want %d", CtrSweepRuns, got, len(ps))
	}

	if got, err := Sweep(context.Background(), "bkrus", in, nil); err != nil || len(got) != 0 {
		t.Errorf("empty sweep: %v, %v", got, err)
	}
	if _, err := Sweep(context.Background(), "no-such", in, ps[:1]); err == nil {
		t.Error("unknown constructor accepted")
	}
}

func sameEdges(a, b *graph.Tree) bool {
	if a.N != b.N || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}
