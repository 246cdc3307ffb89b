package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/inst"
)

// conformanceParams gives every registered constructor a parameter
// setting that must succeed on the shared fixtures. Registering a new
// constructor without extending this table fails the suite, which is
// the point: every algorithm rides the same conformance harness.
var conformanceParams = map[string]Params{
	"mst":        {},
	"spt":        {},
	"maxst":      {},
	"bkrus":      {Eps: 0.2},
	"bkruslu":    {Eps1: 0, Eps2: 0.25},
	"bprim":      {Eps: 0.2},
	"brbc":       {Eps: 0.2},
	"ahhk":       {AHHKC: 0.5},
	"bkh2":       {Eps: 0.2, ExchangeBudget: 200000},
	"bkex":       {Eps: 0.2, ExchangeDepth: 2},
	"bmstg":      {Eps: 0.2},
	"bmstglu":    {Eps1: 0, Eps2: 0.25},
	"elmore":     {Eps: 0.3},
	"bkh2elmore": {Eps: 0.3},
	"bkst":       {Eps: 0.3},
	"bkstlu":     {Eps1: 0, Eps2: 0.35},
	"bkstplanar": {Eps: 0.3},
}

// conformanceBounds returns the wirelength path bounds a constructor
// promises for its parameters, or ok=false for constructors whose
// guarantee is not a wirelength window (references, AHHK, Elmore).
func conformanceBounds(name string, in *inst.Instance, p Params) (core.Bounds, bool) {
	switch name {
	case "bkrus", "bprim", "brbc", "bkh2", "bkex", "bmstg", "bkst", "bkstplanar":
		return core.UpperOnly(in, p.Eps), true
	case "bkruslu", "bmstglu", "bkstlu":
		return core.LowerUpper(in, p.Eps1, p.Eps2), true
	default:
		return core.Bounds{}, false
	}
}

func conformanceFixtures() []struct {
	name string
	in   *inst.Instance
} {
	return []struct {
		name string
		in   *inst.Instance
	}{
		{"p1", bench.P1()},
		{"p2", bench.P2()},
		{"rand8", bench.Random(1, 8, 100)},
	}
}

// edgeString is the byte-level identity of a build result: two runs of
// a deterministic constructor must produce it verbatim.
func edgeString(r Result) string {
	if r.Steiner != nil {
		return fmt.Sprintf("%v", r.Steiner.Edges())
	}
	return fmt.Sprintf("%v", r.Tree.Edges)
}

// TestConformance drives every registered constructor over the shared
// fixtures and checks the contract common to all of them: a valid
// connected source-rooted tree, path bounds honoured where the
// algorithm promises them, and byte-identical output across two runs.
func TestConformance(t *testing.T) {
	infos := List()
	for _, info := range infos {
		if _, ok := conformanceParams[info.Name]; !ok {
			t.Errorf("constructor %q has no conformance parameters; extend conformanceParams", info.Name)
		}
	}
	for _, info := range infos {
		p, ok := conformanceParams[info.Name]
		if !ok {
			continue
		}
		for _, fx := range conformanceFixtures() {
			t.Run(info.Name+"/"+fx.name, func(t *testing.T) {
				first, err := Build(context.Background(), info.Name, fx.in, p)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				switch info.Kind {
				case Spanning:
					checkSpanning(t, info.Name, fx.in, first, p)
				case Steiner:
					checkSteiner(t, info.Name, fx.in, first, p)
				}
				second, err := Build(context.Background(), info.Name, fx.in, p)
				if err != nil {
					t.Fatalf("rebuild: %v", err)
				}
				if edgeString(first) != edgeString(second) {
					t.Errorf("two runs differ:\n  %s\n  %s", edgeString(first), edgeString(second))
				}
			})
		}
	}
}

// TestConformanceGeometryAutoMatchesDense pins the PR-8 compatibility
// satellite: at conformance scale (every fixture is far below
// core.SparseThreshold) Geometry auto must resolve dense, so every
// registered constructor — sparse-capable or not — produces
// byte-identical output under auto and forced-dense parameters.
func TestConformanceGeometryAutoMatchesDense(t *testing.T) {
	for _, info := range List() {
		p, ok := conformanceParams[info.Name]
		if !ok {
			continue
		}
		for _, fx := range conformanceFixtures() {
			t.Run(info.Name+"/"+fx.name, func(t *testing.T) {
				pa := p
				pa.Geometry = GeomAuto
				auto, err := Build(context.Background(), info.Name, fx.in, pa)
				if err != nil {
					t.Fatalf("auto build: %v", err)
				}
				pd := p
				pd.Geometry = GeomDense
				dense, err := Build(context.Background(), info.Name, fx.in, pd)
				if err != nil {
					t.Fatalf("dense build: %v", err)
				}
				if edgeString(auto) != edgeString(dense) {
					t.Errorf("auto and dense builds differ:\n  %s\n  %s", edgeString(auto), edgeString(dense))
				}
			})
		}
	}
}

// TestSparseMSTMatchesDense forces the sparse substrate on the mst
// constructor: Kruskal over the octant neighbor stream must reproduce
// the dense complete-graph Kruskal byte for byte at any size (the
// neighbor graph contains every MST edge under both metrics).
func TestSparseMSTMatchesDense(t *testing.T) {
	fixtures := conformanceFixtures()
	fixtures = append(fixtures, struct {
		name string
		in   *inst.Instance
	}{"rand600", bench.Random(3, 600, 100)})
	for _, fx := range fixtures {
		sparse, err := Build(context.Background(), "mst", fx.in, Params{Geometry: GeomSparse})
		if err != nil {
			t.Fatalf("%s: sparse mst: %v", fx.name, err)
		}
		dense, err := Build(context.Background(), "mst", fx.in, Params{Geometry: GeomDense})
		if err != nil {
			t.Fatalf("%s: dense mst: %v", fx.name, err)
		}
		if edgeString(sparse) != edgeString(dense) {
			t.Errorf("%s: sparse and dense mst differ:\n  %s\n  %s", fx.name, edgeString(sparse), edgeString(dense))
		}
	}
}

func checkSpanning(t *testing.T, name string, in *inst.Instance, r Result, p Params) {
	t.Helper()
	if r.Tree == nil {
		t.Fatalf("%s returned no spanning tree", name)
	}
	if r.Steiner != nil {
		t.Errorf("%s is Spanning but returned a Steiner tree too", name)
	}
	if err := r.Tree.Validate(); err != nil {
		t.Fatalf("%s tree invalid: %v", name, err)
	}
	if r.Tree.N != in.N() {
		t.Fatalf("%s tree spans %d nodes, instance has %d", name, r.Tree.N, in.N())
	}
	d := r.Tree.PathLengthsFrom(graph.Source)
	for v := 1; v < r.Tree.N; v++ {
		if math.IsInf(d[v], 1) {
			t.Fatalf("%s: sink %d unreachable from the source", name, v)
		}
	}
	if b, ok := conformanceBounds(name, in, p); ok && !core.FeasibleTree(r.Tree, b) {
		t.Errorf("%s tree violates its bounds [%g, %g]", name, b.Lower, b.Upper)
	}
	if name == "elmore" || name == "bkh2elmore" {
		m := delay.DefaultModel()
		bound := (1 + p.Eps) * delay.StarR(in, m)
		if got := delay.SourceRadius(r.Tree, m); got > bound*(1+1e-9) {
			t.Errorf("%s Elmore radius %g above bound %g", name, got, bound)
		}
	}
}

func checkSteiner(t *testing.T, name string, in *inst.Instance, r Result, p Params) {
	t.Helper()
	if r.Steiner == nil {
		t.Fatalf("%s returned no Steiner tree", name)
	}
	if r.Tree != nil {
		t.Errorf("%s is Steiner but returned a spanning tree too", name)
	}
	if err := r.Steiner.Validate(); err != nil {
		t.Fatalf("%s Steiner tree invalid: %v", name, err)
	}
	b, ok := conformanceBounds(name, in, p)
	if !ok {
		return
	}
	for term, d := range r.Steiner.PathLengths() {
		if term == 0 {
			continue
		}
		if !b.WithinUpper(d) || !b.WithinLower(d) {
			t.Errorf("%s terminal %d path %g outside [%g, %g]", name, term, d, b.Lower, b.Upper)
		}
	}
}
