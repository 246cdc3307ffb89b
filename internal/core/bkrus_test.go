package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

// bkrusBounds is the hook-free build the tests run: no counters, a
// fresh scratch, a context that never cancels.
func bkrusBounds(in *inst.Instance, b Bounds) (*graph.Tree, error) {
	return BKRUSBuild(context.Background(), in, b, Config{})
}

// bkrus builds under the paper's bound (1+eps)·R.
func bkrus(in *inst.Instance, eps float64) (*graph.Tree, error) {
	return bkrusBounds(in, UpperOnly(in, eps))
}

// bkruslu builds under the §6 window [eps1·R, (1+eps2)·R].
func bkruslu(in *inst.Instance, eps1, eps2 float64) (*graph.Tree, error) {
	return bkrusBounds(in, LowerUpper(in, eps1, eps2))
}

func randomInstance(rng *rand.Rand, sinks int, extent float64) *inst.Instance {
	pts := make([]geom.Point, sinks)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	src := geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	return inst.MustNew(src, pts, geom.Manhattan)
}

// A negative ε puts the bound below R, where the farthest sink's own
// direct wire does not fit: the build reports the window infeasible.
// (The engine rejects a negative ε by name before it builds.)
func TestBKRUSRejectsNegativeEps(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 0}}, geom.Manhattan)
	if _, err := bkrus(in, -0.1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative eps: err %v, want ErrInfeasible", err)
	}
}

func TestBoundsValidate(t *testing.T) {
	if (Bounds{Lower: 0, Upper: 1}).Validate() != nil {
		t.Error("valid bounds rejected")
	}
	if (Bounds{Lower: -1, Upper: 1}).Validate() == nil {
		t.Error("negative lower accepted")
	}
	if (Bounds{Lower: 2, Upper: 1}).Validate() == nil {
		t.Error("empty window accepted")
	}
	if (Bounds{Lower: math.NaN(), Upper: 1}).Validate() == nil {
		t.Error("NaN lower accepted")
	}
}

func TestBKRUSInfiniteEpsIsMST(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 3+rng.Intn(30), 100)
		tr, err := bkrus(in, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		want := mst.Kruskal(in.DistMatrix()).Cost()
		if math.Abs(tr.Cost()-want) > 1e-9 {
			t.Errorf("trial %d: BKRUS(inf) cost %v, MST %v", trial, tr.Cost(), want)
		}
	}
}

func TestBKRUSZeroEpsRadiusEqualsR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 3+rng.Intn(25), 100)
		tr, err := bkrus(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r := tr.Radius(graph.Source); r > in.R()+1e-9 {
			t.Errorf("trial %d: radius %v > R %v", trial, r, in.R())
		}
	}
}

// The crafted rejection fixture: two sinks equally far from the source
// whose connecting edge is cheap but makes both unreachable within the
// ε = 0 bound, so BKRUS must fall back to the source star; relaxing ε
// recovers the MST.
func TestBKRUSRejectionFixture(t *testing.T) {
	in := inst.MustNew(geom.Point{},
		[]geom.Point{{X: 8, Y: 4}, {X: 4, Y: 8}}, geom.Manhattan)
	if in.R() != 12 {
		t.Fatalf("fixture R = %v", in.R())
	}
	tight, err := bkrus(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tight.Cost()-24) > 1e-9 { // star: 12 + 12
		t.Errorf("eps=0 cost = %v, want 24 (source star)", tight.Cost())
	}
	if !tight.HasEdge(0, 1) || !tight.HasEdge(0, 2) {
		t.Errorf("eps=0 edges = %v, want the source star", tight.Edges)
	}
	loose, err := bkrus(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loose.Cost()-20) > 1e-9 { // MST: 12 + 8
		t.Errorf("eps=1 cost = %v, want 20 (MST)", loose.Cost())
	}
}

// Figure 5 phenomenon: BKRUS commits to the cheap sink-sink edge (a,b),
// which later forces the expensive direct edge (S,a); rejecting (a,b)
// would have allowed both a and b to hang off c. Cost is 19.9 where a
// better feasible tree of cost 18.9 exists.
func TestBKRUSFigure5NonOptimal(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{
		{X: 3.4, Y: 2.8}, // a = node 1
		{X: 5.2, Y: 2.6}, // b = node 2
		{X: 4.0, Y: 0.0}, // c = node 3
		{X: 0.0, Y: 7.7}, // d = node 4
	}, geom.Manhattan)
	b := Bounds{Upper: 8.3}
	tr, err := bkrusBounds(in, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Cost()-19.9) > 1e-9 {
		t.Fatalf("BKRUS cost = %v, want 19.9", tr.Cost())
	}
	// construct the better tree by hand: S-c, c-a, c-b, S-d
	dm := in.DistMatrix()
	better := graph.NewTree(in.N())
	better.AddEdge(0, 3, dm.At(0, 3))
	better.AddEdge(3, 1, dm.At(3, 1))
	better.AddEdge(3, 2, dm.At(3, 2))
	better.AddEdge(0, 4, dm.At(0, 4))
	if err := better.Validate(); err != nil {
		t.Fatal(err)
	}
	if !FeasibleTree(better, b) {
		t.Fatal("hand-built tree should be feasible")
	}
	if better.Cost() >= tr.Cost() {
		t.Errorf("fixture broken: better cost %v >= BKRUS %v", better.Cost(), tr.Cost())
	}
	if math.Abs(better.Cost()-18.9) > 1e-9 {
		t.Errorf("better cost = %v, want 18.9", better.Cost())
	}
}

// Property: for random instances and random eps, BKRUS returns a valid
// spanning tree whose source-sink paths all satisfy the bound and whose
// cost is at least the MST cost.
func TestBKRUSBoundPropertyQuick(t *testing.T) {
	f := func(seed int64, szRaw, epsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%25) + 2
		eps := float64(epsRaw%200) / 100 // 0.00 .. 1.99
		in := randomInstance(rng, n, 100)
		tr, err := bkrus(in, eps)
		if err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		if !FeasibleTree(tr, UpperOnly(in, eps)) {
			return false
		}
		return tr.Cost() >= mst.Kruskal(in.DistMatrix()).Cost()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: bound nesting — a tree BKRUS builds at a given eps also
// satisfies every looser bound eps' >= eps (validated through
// FeasibleTree; TestMergeBookkeepingMatchesTreeRecompute checks the
// engine's path and radius bookkeeping directly).
func TestBKRUSBoundNestingProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%15) + 2
		in := randomInstance(rng, n, 50)
		tight, err := bkrus(in, 0.1)
		if err != nil {
			return false
		}
		return FeasibleTree(tight, UpperOnly(in, 0.1)) &&
			FeasibleTree(tight, UpperOnly(in, 0.5)) &&
			FeasibleTree(tight, UpperOnly(in, math.Inf(1)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBKRUSSingleSink(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 5, Y: 5}}, geom.Euclidean)
	tr, err := bkrus(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) != 1 || tr.Cost() != in.R() {
		t.Errorf("single-sink tree wrong: %v", tr.Edges)
	}
}

func TestBKRUSEuclideanMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := make([]geom.Point, 12)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	in := inst.MustNew(geom.Point{X: 5, Y: 5}, pts, geom.Euclidean)
	tr, err := bkrus(in, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !FeasibleTree(tr, UpperOnly(in, 0.2)) {
		t.Error("Euclidean BKRUS violates bound")
	}
}

func TestBKRUSLUZeroLowerMatchesBKRUS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 3+rng.Intn(15), 100)
		a, err := bkrus(in, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bkruslu(in, 0, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Cost()-b.Cost()) > 1e-9 {
			t.Errorf("trial %d: BKRUS %v vs BKRUSLU(0,·) %v", trial, a.Cost(), b.Cost())
		}
	}
}

func TestBKRUSLUBoundsRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	feasibleCount := 0
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 3+rng.Intn(12), 100)
		eps1 := float64(rng.Intn(8)) / 10  // 0.0 .. 0.7
		eps2 := float64(rng.Intn(15)) / 10 // 0.0 .. 1.4
		tr, err := bkruslu(in, eps1, eps2)
		if err != nil {
			continue // genuinely infeasible combos are expected (§6)
		}
		feasibleCount++
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := LowerUpper(in, eps1, eps2)
		d := tr.PathLengthsFrom(graph.Source)
		for v := 1; v < tr.N; v++ {
			if d[v] < b.Lower-1e-9 || d[v] > b.Upper+1e-9 {
				t.Errorf("trial %d: path %v outside [%v,%v]", trial, d[v], b.Lower, b.Upper)
			}
		}
	}
	if feasibleCount == 0 {
		t.Error("no LUB combination was feasible across 40 trials; suspicious")
	}
}

// A negative ε1 is a malformed window; a negative ε2 puts the upper
// bound below R, which the farthest sink cannot meet.
func TestBKRUSLUNegativeEps(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 0}}, geom.Manhattan)
	if _, err := bkruslu(in, -0.5, 0.5); err == nil || errors.Is(err, ErrInfeasible) {
		t.Errorf("negative eps1: err %v, want a malformed-bounds error", err)
	}
	if _, err := bkruslu(in, 0.5, -0.5); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative eps2: err %v, want ErrInfeasible", err)
	}
}

func TestBKRUSLUInfeasibleWindow(t *testing.T) {
	// A sink closer than Lower can never satisfy the lower bound when it
	// is the only sink: its path is exactly its direct distance.
	in := inst.MustNew(geom.Point{},
		[]geom.Point{{X: 10, Y: 0}, {X: 1, Y: 0}}, geom.Manhattan)
	// Lower = 0.9*R = 9 > dist(S, sink2's best possible path)? sink2 can
	// ride through sink1 for a long path, so choose a window that kills
	// that too: Lower = 0.95*R = 9.5, Upper = R = 10. Paths to sink 2:
	// direct 1 (violates), via sink1: 10 + 9 = 19 > Upper. Infeasible.
	if _, err := bkruslu(in, 0.95, 0.0); err == nil {
		t.Error("infeasible window accepted")
	}
}

func TestFeasibleTreeEdgeCases(t *testing.T) {
	tr := graph.NewTree(3)
	tr.AddEdge(0, 1, 5)
	tr.AddEdge(1, 2, 5)
	if !FeasibleTree(tr, Bounds{Lower: 0, Upper: 10}) {
		t.Error("feasible tree rejected")
	}
	if FeasibleTree(tr, Bounds{Lower: 0, Upper: 9.9}) {
		t.Error("infeasible tree accepted")
	}
	if FeasibleTree(tr, Bounds{Lower: 6, Upper: 10}) {
		t.Error("lower-violating tree accepted")
	}
	forest := graph.NewTree(3)
	forest.AddEdge(0, 1, 1)
	if FeasibleTree(forest, Bounds{Lower: 0, Upper: 100}) {
		t.Error("forest accepted as feasible")
	}
}

// Pathological p1-style family (paper Figure 13): N sinks placed on the
// Manhattan circle of radius R around the source (the diamond arc), so
// every sink sits exactly at distance R. At eps=0 any sink-sink merge
// would push some path beyond R, so every sink needs a direct source
// connection and cost(BKT)/cost(MST) approaches N.
func TestBKRUSFigure13Pathology(t *testing.T) {
	const n = 8
	sinks := make([]geom.Point, n)
	for i := range sinks {
		t0 := float64(i) * 0.01
		sinks[i] = geom.Point{X: 20 - t0, Y: t0}
	}
	in := inst.MustNew(geom.Point{}, sinks, geom.Manhattan)
	bkt, err := bkrus(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	mstCost := mst.Kruskal(in.DistMatrix()).Cost()
	ratio := bkt.Cost() / mstCost
	if ratio < float64(n)*0.9 {
		t.Errorf("pathology ratio = %v, want close to %d", ratio, n)
	}
	// with generous eps the ratio collapses to 1
	loose, err := bkrus(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := loose.Cost() / mstCost; math.Abs(r-1) > 1e-9 {
		t.Errorf("loose ratio = %v, want 1", r)
	}
}

func BenchmarkBKRUS100(b *testing.B) {
	in := randomInstance(rand.New(rand.NewSource(13)), 100, 1000)
	in.DistMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bkrus(in, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBKRUSWithStats(t *testing.T) {
	in := inst.MustNew(geom.Point{},
		[]geom.Point{{X: 8, Y: 4}, {X: 4, Y: 8}}, geom.Manhattan)
	tr, c, err := runCounted(in, UpperOnly(in, 0))
	if err != nil {
		t.Fatal(err)
	}
	merges, bound := c.Merges.Load(), c.BoundRejections.Load()
	if merges != int64(len(tr.Edges)) || merges != 2 {
		t.Errorf("Merges = %d, edges = %d", merges, len(tr.Edges))
	}
	// the (a,b) edge must have been bound-rejected in this fixture
	if bound == 0 {
		t.Errorf("expected a bound rejection: %v", loads(c))
	}
	if c.EdgesExamined.Load() < merges+bound {
		t.Errorf("inconsistent counters: %v", loads(c))
	}
	// instrumentation off (plain BKRUS) must agree on the tree
	plain, err := bkrus(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost() != tr.Cost() {
		t.Errorf("instrumented run changed the result: %v vs %v", plain.Cost(), tr.Cost())
	}
}

func TestBKRUSWithStatsBadBounds(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 0}}, geom.Manhattan)
	if _, _, err := runCounted(in, Bounds{Lower: 5, Upper: 1}); err == nil {
		t.Error("invalid bounds accepted")
	}
}

// Figure 4 style worked example: four sinks on the Manhattan circle of
// radius 8 with bound 12 = 1.5R. The chain a-b-c grows; extending it to
// d fails condition (3-b) — no node of the merged chain could still
// reach the source within the bound; later the direct edge (S,a) fails
// condition (3-a) because a's radius inside the chain is too large; the
// tree completes through (S,b) and (S,d), exactly the paper's Figure 4
// narrative of rejected and accepted edges.
func TestBKRUSFigure4Style(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{
		{X: 8, Y: 0}, // a = 1
		{X: 6, Y: 2}, // b = 2
		{X: 4, Y: 4}, // c = 3
		{X: 2, Y: 6}, // d = 4
	}, geom.Manhattan)
	if in.R() != 8 {
		t.Fatalf("fixture R = %v, want 8", in.R())
	}
	tr, c, err := runCounted(in, UpperOnly(in, 0.5)) // bound 12
	if err != nil {
		t.Fatal(err)
	}
	want := map[graph.Key]bool{
		graph.EdgeKey(1, 2): true, // a-b
		graph.EdgeKey(2, 3): true, // b-c
		graph.EdgeKey(0, 2): true, // S-b
		graph.EdgeKey(0, 4): true, // S-d
	}
	for _, e := range tr.Edges {
		if !want[e.Key()] {
			t.Errorf("unexpected edge %v", e)
		}
	}
	if len(tr.Edges) != 4 {
		t.Fatalf("edge count %d", len(tr.Edges))
	}
	if math.Abs(tr.Cost()-24) > 1e-9 {
		t.Errorf("cost = %v, want 24", tr.Cost())
	}
	// (c,d) via (3-b), (S,a) via (3-a), plus further rejected candidates
	if c.BoundRejections.Load() < 2 {
		t.Errorf("expected at least the Figure 4 rejections, got %v", loads(c))
	}
	d := tr.PathLengthsFrom(graph.Source)
	for v := 1; v < tr.N; v++ {
		if d[v] > 12+1e-9 {
			t.Errorf("path to %d = %v exceeds the bound", v, d[v])
		}
	}
}
