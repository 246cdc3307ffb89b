package exact

import (
	"context"
	"errors"

	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

func randomInstance(rng *rand.Rand, sinks int, extent float64) *inst.Instance {
	pts := make([]geom.Point, sinks)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	src := geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	return inst.MustNew(src, pts, geom.Manhattan)
}

// allSpanningTrees brute-forces every spanning tree of the complete graph
// over in (feasible only for tiny instances).
func allSpanningTrees(in *inst.Instance) []*graph.Tree {
	edges := graph.CompleteEdges(in.DistMatrix())
	n := in.N()
	var out []*graph.Tree
	var pick func(start, chosen int, cur []graph.Edge)
	pick = func(start, chosen int, cur []graph.Edge) {
		if chosen == n-1 {
			t := &graph.Tree{N: n, Edges: append([]graph.Edge(nil), cur...)}
			if t.Validate() == nil {
				out = append(out, t)
			}
			return
		}
		for i := start; i <= len(edges)-(n-1-chosen); i++ {
			pick(i+1, chosen+1, append(cur, edges[i]))
		}
	}
	pick(0, 0, nil)
	return out
}

// bruteBMST returns the cheapest spanning tree satisfying the bounds, or
// nil if none exists.
func bruteBMST(in *inst.Instance, b core.Bounds) *graph.Tree {
	var best *graph.Tree
	for _, t := range allSpanningTrees(in) {
		if core.FeasibleTree(t, b) && (best == nil || t.Cost() < best.Cost()) {
			best = t
		}
	}
	return best
}

// A negative ε puts the bound below R, where no spanning tree fits: the
// search reports it infeasible. (The engine rejects a negative ε by
// name before it searches.)
func TestBMSTGNegativeEps(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 0}}, geom.Manhattan)
	if _, err := BMSTGBounds(context.Background(), in, core.UpperOnly(in, -1), Options{}); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("negative eps: err %v, want core.ErrInfeasible", err)
	}
}

func TestBMSTGInfiniteEpsIsMST(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(rng, 3+rng.Intn(8), 100)
		tr, err := BMSTGBounds(context.Background(), in, core.UpperOnly(in, math.Inf(1)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := mst.Kruskal(in.DistMatrix()).Cost()
		if math.Abs(tr.Cost()-want) > 1e-9 {
			t.Errorf("trial %d: BMSTG(inf) = %v, MST = %v", trial, tr.Cost(), want)
		}
	}
}

func TestBMSTGMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 12; trial++ {
		in := randomInstance(rng, 3+rng.Intn(3), 100) // 3-5 sinks
		eps := float64(rng.Intn(5)) / 10
		b := core.UpperOnly(in, eps)
		want := bruteBMST(in, b)
		got, err := BMSTGBounds(context.Background(), in, core.UpperOnly(in, eps), Options{})
		if want == nil {
			if err == nil {
				t.Errorf("trial %d: expected infeasible, got cost %v", trial, got.Cost())
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(got.Cost()-want.Cost()) > 1e-9 {
			t.Errorf("trial %d: BMSTG = %v, brute = %v", trial, got.Cost(), want.Cost())
		}
		if !core.FeasibleTree(got, b) {
			t.Errorf("trial %d: BMSTG result infeasible", trial)
		}
	}
}

func TestBMSTGLemmaAblationAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 4+rng.Intn(4), 100)
		eps := float64(rng.Intn(8)) / 10
		a, errA := BMSTGBounds(context.Background(), in, core.UpperOnly(in, eps), Options{})
		b, errB := BMSTGBounds(context.Background(), in, core.UpperOnly(in, eps), Options{DisableLemmas: true})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: lemma/no-lemma disagree on feasibility: %v vs %v", trial, errA, errB)
		}
		if errA == nil && math.Abs(a.Cost()-b.Cost()) > 1e-9 {
			t.Errorf("trial %d: lemma %v vs no-lemma %v", trial, a.Cost(), b.Cost())
		}
	}
}

func TestKBestOrderMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng, 4, 100) // 5 nodes -> 125 spanning trees
		all := allSpanningTrees(in)
		costs := make([]float64, len(all))
		for i, tr := range all {
			costs[i] = tr.Cost()
		}
		sort.Float64s(costs)
		k := 20
		got := KBest(in, k)
		if len(got) != k {
			t.Fatalf("trial %d: KBest returned %d trees", trial, len(got))
		}
		prev := math.Inf(-1)
		for i, tr := range got {
			if tr.Cost() < prev-1e-9 {
				t.Errorf("trial %d: KBest not nondecreasing at %d", trial, i)
			}
			prev = tr.Cost()
			if math.Abs(tr.Cost()-costs[i]) > 1e-9 {
				t.Errorf("trial %d: KBest[%d] = %v, brute = %v", trial, i, tr.Cost(), costs[i])
			}
		}
	}
}

func TestKBestEnumeratesDistinctTrees(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(5)), 4, 100)
	trees := KBest(in, 125) // all of them for n=5
	if len(trees) != 125 {
		t.Fatalf("KBest(125) returned %d trees, want 125 (Cayley 5^3)", len(trees))
	}
	seen := map[string]bool{}
	for _, tr := range trees {
		keys := make([]graph.Key, len(tr.Edges))
		for i, e := range tr.Edges {
			keys[i] = e.Key()
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].U != keys[j].U {
				return keys[i].U < keys[j].U
			}
			return keys[i].V < keys[j].V
		})
		sig := ""
		for _, k := range keys {
			sig += string(rune(k.U)) + string(rune(k.V))
		}
		if seen[sig] {
			t.Fatalf("duplicate tree enumerated: %v", tr.Edges)
		}
		seen[sig] = true
	}
}

func TestBMSTGBudget(t *testing.T) {
	// A tight-but-satisfiable instance with the budget forced to 1 should
	// hit ErrBudget unless the MST itself is feasible.
	in := inst.MustNew(geom.Point{}, []geom.Point{
		{X: 3.4, Y: 2.8}, {X: 5.2, Y: 2.6}, {X: 4, Y: 0}, {X: 0, Y: 7.7},
	}, geom.Manhattan)
	b := core.Bounds{Upper: 8.3}
	m := mst.Kruskal(in.DistMatrix())
	if core.FeasibleTree(m, b) {
		t.Skip("fixture MST unexpectedly feasible")
	}
	if _, err := BMSTGBounds(context.Background(), in, b, Options{MaxTrees: 1}); err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestBMSTGFigure5Optimal(t *testing.T) {
	// On the Figure 5 fixture BKRUS yields 19.9 but the optimum is 18.9.
	in := inst.MustNew(geom.Point{}, []geom.Point{
		{X: 3.4, Y: 2.8}, {X: 5.2, Y: 2.6}, {X: 4, Y: 0}, {X: 0, Y: 7.7},
	}, geom.Manhattan)
	got, err := BMSTGBounds(context.Background(), in, core.Bounds{Upper: 8.3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Cost()-18.9) > 1e-9 {
		t.Errorf("optimal cost = %v, want 18.9", got.Cost())
	}
}

func TestBMSTGLowerUpperBounds(t *testing.T) {
	// Force a minimum path length: the near sink must detour.
	in := inst.MustNew(geom.Point{}, []geom.Point{
		{X: 10, Y: 0}, {X: 9, Y: 2},
	}, geom.Manhattan)
	// R = 11; window [0.95R, 1.1R] = [10.45, 12.1]. Direct paths: sink1 =
	// 10 (violates lower), sink2 = 11 OK. sink1 via sink2: 11 + 3 = 14 >
	// upper. sink2 via sink1: 10 + 3 = 13 > upper. So the only hope is
	// infeasible.
	if _, err := BMSTGBounds(context.Background(), in, core.LowerUpper(in, 0.95, 0.1), Options{}); err == nil {
		t.Error("expected infeasible LUB window")
	}
	// Widen the upper bound: sink1 via sink2 (11 + 3 = 14 <= 1.3*11) works.
	tr, err := BMSTGBounds(context.Background(), in, core.LowerUpper(in, 0.95, 0.3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := tr.PathLengthsFrom(graph.Source)
	lo := 0.95 * in.R()
	for v := 1; v < tr.N; v++ {
		if d[v] < lo-1e-9 {
			t.Errorf("path to %d = %v below lower bound %v", v, d[v], lo)
		}
	}
}

// Property: BMSTG cost is never above BKRUS cost and never below MST cost.
func TestBMSTGSandwichProperty(t *testing.T) {
	f := func(seed int64, epsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 3+rng.Intn(5), 100)
		eps := float64(epsRaw%120) / 100
		opt, err := BMSTGBounds(context.Background(), in, core.UpperOnly(in, eps), Options{})
		if err != nil {
			return false
		}
		bk, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, eps), core.Config{})
		if err != nil {
			return false
		}
		mstCost := mst.Kruskal(in.DistMatrix()).Cost()
		return opt.Cost() <= bk.Cost()+1e-9 && opt.Cost() >= mstCost-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCandidateEdgesLemma43Forces(t *testing.T) {
	// One sink so remote that every two-hop route breaks the bound: its
	// direct source edge must be forced.
	in := inst.MustNew(geom.Point{}, []geom.Point{
		{X: 1, Y: 0}, {X: 0, Y: 40},
	}, geom.Manhattan)
	b := core.UpperOnly(in, 0) // bound = 40
	_, forced := candidateEdges(in, b, true)
	foundFar := false
	for _, e := range forced {
		if e.Key() == graph.EdgeKey(0, 2) {
			foundFar = true
		}
	}
	if !foundFar {
		t.Errorf("edge (S, far sink) not forced: %v", forced)
	}
}

func TestBMSTGWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	in := randomInstance(rng, 8, 100)
	b := core.UpperOnly(in, 0.1)
	tr, withLemmas, err := BMSTGWithStats(context.Background(), in, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr2, without, err := BMSTGWithStats(context.Background(), in, b, Options{DisableLemmas: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Cost()-tr2.Cost()) > 1e-9 {
		t.Fatalf("lemma ablation changed the optimum: %v vs %v", tr.Cost(), tr2.Cost())
	}
	if withLemmas.CandidateEdges > without.CandidateEdges {
		t.Errorf("lemmas grew the edge set: %d vs %d",
			withLemmas.CandidateEdges, without.CandidateEdges)
	}
	if withLemmas.TreesPopped > without.TreesPopped {
		t.Errorf("lemmas grew the enumeration: %d vs %d trees",
			withLemmas.TreesPopped, without.TreesPopped)
	}
	if withLemmas.TreesPopped < 1 || withLemmas.PeakHeap < 1 {
		t.Errorf("implausible stats: %+v", withLemmas)
	}
}
