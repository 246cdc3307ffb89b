package exchange_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/exchange"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

// build runs a registered constructor through the engine: an exchange
// pipeline, "bkex" or "bkh2" (a BKRUS start followed by exchange
// search), or the "bkrus" start itself.
func build(name string, in *inst.Instance, eps float64) (*graph.Tree, error) {
	r, err := engine.Build(context.Background(), name, in, engine.Params{Eps: eps})
	return r.Tree, err
}

func randomInstance(rng *rand.Rand, sinks int, extent float64) *inst.Instance {
	pts := make([]geom.Point, sinks)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	src := geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	return inst.MustNew(src, pts, geom.Manhattan)
}

func TestImproveRejectsBadStart(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 0}, {X: 2, Y: 0}}, geom.Manhattan)
	forest := graph.NewTree(3)
	forest.AddEdge(0, 1, 1)
	if _, err := exchange.Improve(context.Background(), in, forest, core.Bounds{Upper: 100}, exchange.Options{}); err == nil {
		t.Error("invalid starting tree accepted")
	}
	// valid tree violating the bounds
	star := graph.NewTree(3)
	star.AddEdge(0, 1, 1)
	star.AddEdge(0, 2, 2)
	if _, err := exchange.Improve(context.Background(), in, star, core.Bounds{Upper: 1.5}, exchange.Options{}); err == nil {
		t.Error("bound-violating starting tree accepted")
	}
}

func TestImproveDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomInstance(rng, 8, 100)
	start, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, 0.2), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	costBefore := start.Cost()
	edgesBefore := len(start.Edges)
	if _, err := exchange.Improve(context.Background(), in, start, core.UpperOnly(in, 0.2), exchange.Options{MaxDepth: 2}); err != nil {
		t.Fatal(err)
	}
	if start.Cost() != costBefore || len(start.Edges) != edgesBefore {
		t.Error("Improve mutated the starting tree")
	}
}

// Figure 5 fixture: BKRUS is stuck at 19.9; exchange search must recover
// the optimum 18.9.
func TestBKEXRecoversFigure5Optimum(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{
		{X: 3.4, Y: 2.8}, {X: 5.2, Y: 2.6}, {X: 4, Y: 0}, {X: 0, Y: 7.7},
	}, geom.Manhattan)
	b := core.Bounds{Upper: 8.3}
	start, err := core.BKRUSBuild(context.Background(), in, b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(start.Cost()-19.9) > 1e-9 {
		t.Fatalf("fixture drifted: BKRUS cost %v", start.Cost())
	}
	res, err := exchange.Improve(context.Background(), in, start, b, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Tree.Cost()-18.9) > 1e-9 {
		t.Errorf("BKEX cost = %v, want 18.9", res.Tree.Cost())
	}
	if res.Iterations == 0 {
		t.Error("expected at least one improvement")
	}
	if !core.FeasibleTree(res.Tree, b) {
		t.Error("result violates bounds")
	}
}

// BKEX must match the Gabow-exact optimum on random small instances (the
// paper's central exactness claim, §5).
func TestBKEXMatchesBMSTG(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mismatches := 0
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 4+rng.Intn(5), 100) // 4-8 sinks
		eps := float64(rng.Intn(6)) / 10
		want, err := exact.BMSTGBounds(context.Background(), in, core.UpperOnly(in, eps), exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := build("bkex", in, eps)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost() > want.Cost()+1e-9 {
			mismatches++
			t.Logf("trial %d: BKEX %v > optimal %v (eps=%v, n=%d)",
				trial, got.Cost(), want.Cost(), eps, in.N())
		}
		if got.Cost() < want.Cost()-1e-9 {
			t.Errorf("trial %d: BKEX beat the optimum?! %v < %v", trial, got.Cost(), want.Cost())
		}
	}
	if mismatches > 0 {
		t.Errorf("BKEX missed the optimum on %d/25 small instances", mismatches)
	}
}

// BKH2 sits between BKRUS and the optimum.
func TestBKH2Sandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 4+rng.Intn(6), 100)
		eps := float64(rng.Intn(6)) / 10
		bkt, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, eps), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		h2, err := build("bkh2", in, eps)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.BMSTGBounds(context.Background(), in, core.UpperOnly(in, eps), exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if h2.Cost() > bkt.Cost()+1e-9 {
			t.Errorf("trial %d: BKH2 %v worse than BKRUS %v", trial, h2.Cost(), bkt.Cost())
		}
		if h2.Cost() < opt.Cost()-1e-9 {
			t.Errorf("trial %d: BKH2 %v below optimum %v", trial, h2.Cost(), opt.Cost())
		}
		if !core.FeasibleTree(h2, core.UpperOnly(in, eps)) {
			t.Errorf("trial %d: BKH2 result infeasible", trial)
		}
	}
}

// Property: exchange results are always valid feasible spanning trees
// with cost <= the start and >= the MST.
func TestExchangeInvariantsProperty(t *testing.T) {
	f := func(seed int64, szRaw, epsRaw, depthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%8) + 3
		eps := float64(epsRaw%100) / 100
		depth := int(depthRaw%3) + 1 // 1..3: deeper searches are exponential by design
		in := randomInstance(rng, n, 100)
		start, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, eps), core.Config{})
		if err != nil {
			return false
		}
		res, err := exchange.Improve(context.Background(), in, start, core.UpperOnly(in, eps), exchange.Options{MaxDepth: depth})
		if err != nil {
			return false
		}
		if res.Tree.Validate() != nil {
			return false
		}
		if !core.FeasibleTree(res.Tree, core.UpperOnly(in, eps)) {
			return false
		}
		mstCost := mst.Kruskal(in.DistMatrix()).Cost()
		return res.Tree.Cost() <= start.Cost()+1e-9 && res.Tree.Cost() >= mstCost-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Lemma 3.1 corollary (§5): BKT is a local optimum with respect to a
// single T-exchange, so depth-1 search must find no improvement.
func TestBKTSingleExchangeLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 4+rng.Intn(8), 100)
		eps := float64(rng.Intn(8)) / 10
		start, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, eps), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := exchange.Improve(context.Background(), in, start, core.UpperOnly(in, eps), exchange.Options{MaxDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 0 {
			t.Errorf("trial %d (eps=%v): depth-1 improved BKT by %v — Lemma 3.1 corollary violated",
				trial, eps, start.Cost()-res.Tree.Cost())
		}
	}
}

func TestExpansionBudgetTruncates(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{
		{X: 3.4, Y: 2.8}, {X: 5.2, Y: 2.6}, {X: 4, Y: 0}, {X: 0, Y: 7.7},
	}, geom.Manhattan)
	b := core.Bounds{Upper: 8.3}
	start, err := core.BKRUSBuild(context.Background(), in, b, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exchange.Improve(context.Background(), in, start, b, exchange.Options{MaxExpansions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("expected truncation with a 1-expansion budget")
	}
	// sanity: still a valid feasible tree
	if res.Tree.Validate() != nil || !core.FeasibleTree(res.Tree, b) {
		t.Error("truncated result invalid")
	}
}

func TestCountExchanges(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}, geom.Manhattan)
	tr, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, math.Inf(1)), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// chain 0-1-2-3: non-tree edges (0,2),(0,3),(1,3); cycle lengths 2,3,2
	// -> 7 exchanges.
	if got := exchange.CountExchanges(in, tr); got != 7 {
		t.Errorf("CountExchanges = %d, want 7", got)
	}
}

func TestGap(t *testing.T) {
	tr := graph.NewTree(2)
	tr.AddEdge(0, 1, 3)
	if g := exchange.Gap(tr, 2); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("Gap = %v, want 0.5", g)
	}
	if !math.IsInf(exchange.Gap(tr, 0), 1) {
		t.Error("Gap with zero reference should be +Inf")
	}
}

func BenchmarkBKH2Net15(b *testing.B) {
	in := randomInstance(rand.New(rand.NewSource(17)), 15, 100)
	in.DistMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build("bkh2", in, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// The paper describes BKH2 as breadth-first over one or two exchanges;
// the production engine is depth-first with MaxDepth=2. Both must land
// on depth-2 local optima of the same cost.
func TestBKH2BFSAgreesWithDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 4+rng.Intn(6), 100)
		eps := float64(rng.Intn(6)) / 10
		dfs, err := build("bkh2", in, eps)
		if err != nil {
			t.Fatal(err)
		}
		start, err := build("bkrus", in, eps)
		if err != nil {
			t.Fatal(err)
		}
		bfs := exchange.BKH2BFS(start, in.DistMatrix(), core.UpperOnly(in, eps))
		if math.Abs(dfs.Cost()-bfs.Cost()) > 1e-9 {
			t.Errorf("trial %d (eps=%v): DFS %v vs BFS %v", trial, eps, dfs.Cost(), bfs.Cost())
		}
		if err := bfs.Validate(); err != nil {
			t.Fatal(err)
		}
		if !core.FeasibleTree(bfs, core.UpperOnly(in, eps)) {
			t.Errorf("trial %d: BFS result infeasible", trial)
		}
	}
}
