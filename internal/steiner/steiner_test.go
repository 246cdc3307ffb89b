package steiner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/mst"
)

// bkst builds under the paper's bound (1+eps)·R with no counters.
func bkst(in *inst.Instance, eps float64) (*SteinerTree, error) {
	return BKSTBuild(context.Background(), in, core.UpperOnly(in, eps), Config{})
}

// bkstlu builds under the window [eps1·R, (1+eps2)·R].
func bkstlu(in *inst.Instance, eps1, eps2 float64) (*SteinerTree, error) {
	return BKSTBuild(context.Background(), in, core.LowerUpper(in, eps1, eps2), Config{})
}

// bkstPlanar builds a planar tree under (1+eps)·R.
func bkstPlanar(in *inst.Instance, eps float64) (*SteinerTree, error) {
	return BKSTBuild(context.Background(), in, core.UpperOnly(in, eps), Config{Planar: true})
}

func randomInstance(rng *rand.Rand, sinks int, extent float64) *inst.Instance {
	pts := make([]geom.Point, sinks)
	for i := range pts {
		pts[i] = geom.Point{X: float64(rng.Intn(int(extent))), Y: float64(rng.Intn(int(extent)))}
	}
	src := geom.Point{X: float64(rng.Intn(int(extent))), Y: float64(rng.Intn(int(extent)))}
	return inst.MustNew(src, pts, geom.Manhattan)
}

func TestGridBasics(t *testing.T) {
	in := inst.MustNew(geom.Point{X: 0, Y: 0}, []geom.Point{
		{X: 2, Y: 0}, {X: 1, Y: 1}, {X: 1, Y: -1},
	}, geom.Manhattan)
	g := NewGrid(in)
	if g.Cols() != 3 || g.Rows() != 3 { // xs {0,1,2}, ys {-1,0,1}
		t.Fatalf("grid %dx%d, want 3x3", g.Cols(), g.Rows())
	}
	if g.Size() != 9 {
		t.Errorf("Size = %d", g.Size())
	}
	src := g.Terminal(0)
	if g.Coord(src) != (geom.Point{X: 0, Y: 0}) {
		t.Errorf("source coord = %v", g.Coord(src))
	}
	id, ok := g.Locate(geom.Point{X: 1, Y: 0})
	if !ok {
		t.Fatal("Hanan point (1,0) not locatable")
	}
	if g.Coord(id) != (geom.Point{X: 1, Y: 0}) {
		t.Errorf("coord roundtrip failed: %v", g.Coord(id))
	}
	if _, ok := g.Locate(geom.Point{X: 0.5, Y: 0}); ok {
		t.Error("off-grid point located")
	}
	if d := g.Dist(g.Terminal(1), g.Terminal(2)); d != 2 {
		t.Errorf("Dist = %v, want 2", d)
	}
}

func TestGridWalkAndLPaths(t *testing.T) {
	in := inst.MustNew(geom.Point{X: 0, Y: 0}, []geom.Point{
		{X: 2, Y: 0}, {X: 1, Y: 1}, {X: 1, Y: -1},
	}, geom.Manhattan)
	g := NewGrid(in)
	a, _ := g.Locate(geom.Point{X: 0, Y: 0})
	b, _ := g.Locate(geom.Point{X: 2, Y: 0})
	paths := g.LPaths(a, b)
	if len(paths) != 1 {
		t.Fatalf("collinear pair should have 1 path, got %d", len(paths))
	}
	if len(paths[0]) != 3 { // (0,0) (1,0) (2,0)
		t.Errorf("straight path length = %d, want 3", len(paths[0]))
	}
	c, _ := g.Locate(geom.Point{X: 1, Y: 1})
	paths = g.LPaths(a, c)
	if len(paths) != 2 {
		t.Fatalf("L pair should have 2 paths, got %d", len(paths))
	}
	for _, p := range paths {
		if p[0] != a || p[len(p)-1] != c {
			t.Errorf("path endpoints wrong: %v", p)
		}
		// consecutive nodes must be grid-adjacent (share a row or column,
		// adjacent indices)
		for i := 1; i < len(p); i++ {
			dc := g.Col(p[i]) - g.Col(p[i-1])
			dr := g.Row(p[i]) - g.Row(p[i-1])
			if dc*dc+dr*dr != 1 {
				t.Errorf("non-adjacent step %d->%d in %v", p[i-1], p[i], p)
			}
		}
	}
	// first path's corner must be the one closer to the source
	corner := func(p []int) int {
		for i := 1; i < len(p)-1; i++ {
			if g.Col(p[i-1]) != g.Col(p[i+1]) && g.Row(p[i-1]) != g.Row(p[i+1]) {
				return p[i]
			}
		}
		return p[0]
	}
	c0 := corner(paths[0])
	c1 := corner(paths[1])
	if g.DistToSource(c0) > g.DistToSource(c1) {
		t.Errorf("first path corner farther from source: %v vs %v",
			g.DistToSource(c0), g.DistToSource(c1))
	}
}

// Classic Steiner win: three sinks in a T around the source; the Steiner
// point (1,0) carries a shared trunk, saving a quarter of the MST
// wirelength, and the result is feasible even at eps = 0.
func TestBKSTBeatsMSTOnCross(t *testing.T) {
	in := inst.MustNew(geom.Point{X: 0, Y: 0}, []geom.Point{
		{X: 2, Y: 0}, {X: 1, Y: 2}, {X: 1, Y: -2},
	}, geom.Manhattan)
	for _, eps := range []float64{0, 1} {
		st, err := bkst(in, eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Validate(); err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.Cost()-6) > 1e-9 {
			t.Errorf("eps=%v: BKST cost = %v, want 6 (trunk through the Steiner point)", eps, st.Cost())
		}
		if st.Radius() > in.Bound(eps)+1e-9 {
			t.Errorf("eps=%v: radius %v above bound %v", eps, st.Radius(), in.Bound(eps))
		}
	}
	mstCost := mst.Kruskal(in.DistMatrix()).Cost()
	if mstCost != 8 {
		t.Fatalf("fixture MST = %v, want 8", mstCost)
	}
}

func TestBKSTZeroEpsRespectsBound(t *testing.T) {
	in := inst.MustNew(geom.Point{X: 0, Y: 0}, []geom.Point{
		{X: 2, Y: 0}, {X: 1, Y: 1}, {X: 1, Y: -1},
	}, geom.Manhattan)
	st, err := bkst(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Radius() > in.R()+1e-9 {
		t.Errorf("radius %v > R %v at eps=0", st.Radius(), in.R())
	}
	d := st.PathLengths()
	if d[0] != 0 {
		t.Errorf("source path length = %v", d[0])
	}
}

func TestBKSTRejectsEuclidean(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 1}}, geom.Euclidean)
	if _, err := bkst(in, 0); err == nil {
		t.Error("Euclidean instance accepted")
	}
}

func TestBKSTNegativeEps(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 1, Y: 1}}, geom.Manhattan)
	if _, err := bkst(in, -1); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestBKSTSingleSink(t *testing.T) {
	in := inst.MustNew(geom.Point{}, []geom.Point{{X: 3, Y: 4}}, geom.Manhattan)
	st, err := bkst(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Cost()-7) > 1e-9 {
		t.Errorf("cost = %v, want 7", st.Cost())
	}
}

// Property: BKST output is a valid Steiner tree respecting the bound,
// and never costs more than a small factor above the spanning BKRUS tree
// (it embeds on the grid, so it can always replicate a spanning tree).
func TestBKSTBoundProperty(t *testing.T) {
	f := func(seed int64, szRaw, epsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%10) + 2
		eps := float64(epsRaw%150) / 100
		in := randomInstance(rng, n, 30)
		st, err := bkst(in, eps)
		if err != nil {
			// infeasibility is possible only through fallback collisions;
			// treat as failure since eps >= 0 has the star available
			return false
		}
		if st.Validate() != nil {
			return false
		}
		return st.Radius() <= in.Bound(eps)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Statistical check mirroring Table 4: over random nets BKST should beat
// the spanning heuristic BKRUS on average (the paper reports 5-30%
// savings).
func TestBKSTBeatsBKRUSOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var stCost, bkCost float64
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 10, 40)
		st, err := bkst(in, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		bk, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, 0.5), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		stCost += st.Cost()
		bkCost += bk.Cost()
	}
	if stCost >= bkCost {
		t.Errorf("BKST total %v not below BKRUS total %v", stCost, bkCost)
	}
}

func TestSteinerTreePathLengthsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randomInstance(rng, 8, 25)
	st, err := bkst(in, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	d := st.PathLengths()
	dm := in.DistMatrix()
	for v := 1; v < in.N(); v++ {
		if d[v] < dm.At(0, v)-1e-9 {
			t.Errorf("tree path %v shorter than direct distance %v", d[v], dm.At(0, v))
		}
	}
}

func BenchmarkBKST15(b *testing.B) {
	in := randomInstance(rand.New(rand.NewSource(3)), 15, 50)
	in.DistMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bkst(in, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBKSTSinks times BKST on float L1 nets of 100, 200 and 400
// sinks at ε = 0.3: distinct coordinates, so the Hanan grid has about
// (n+1)² nodes. The rows track how construction time scales with the
// net (make profile-bkst profiles the n = 200 row).
func BenchmarkBKSTSinks(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		in := floatL1Instance(int64(n), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bkst(in, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Property: every L-path between two grid nodes has total segment length
// exactly their Manhattan distance, and both paths share endpoints.
func TestLPathLengthProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%8) + 2
		in := randomInstance(rng, n, 40)
		g := NewGrid(in)
		for trial := 0; trial < 10; trial++ {
			a := rng.Intn(g.Size())
			b := rng.Intn(g.Size())
			if a == b {
				continue
			}
			for _, path := range g.LPaths(a, b) {
				if path[0] != a || path[len(path)-1] != b {
					return false
				}
				var sum float64
				for i := 1; i < len(path); i++ {
					sum += g.Dist(path[i-1], path[i])
				}
				if diff := sum - g.Dist(a, b); diff > 1e-9 || diff < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSteinerPointsAndBranching(t *testing.T) {
	// the T fixture: trunk through (1,0), which is a degree-4 branch point
	in := inst.MustNew(geom.Point{X: 0, Y: 0}, []geom.Point{
		{X: 2, Y: 0}, {X: 1, Y: 2}, {X: 1, Y: -2},
	}, geom.Manhattan)
	st, err := bkst(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := st.SteinerPoints()
	if len(sp) == 0 {
		t.Fatal("no Steiner points on the T fixture")
	}
	bp := st.BranchingPoints()
	if len(bp) != 1 {
		t.Fatalf("branching points = %d, want 1", len(bp))
	}
	if st.Grid().Coord(bp[0]) != (geom.Point{X: 1, Y: 0}) {
		t.Errorf("branch point at %v, want (1,0)", st.Grid().Coord(bp[0]))
	}
}
