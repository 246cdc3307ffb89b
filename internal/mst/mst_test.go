package mst

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/graph"
)

func randomPoints(rng *rand.Rand, n int, extent float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	return pts
}

func matrixFor(pts []geom.Point) *geom.DistMatrix {
	return geom.NewDistMatrix(pts, geom.Manhattan)
}

func TestKruskalSmallKnown(t *testing.T) {
	// collinear points 0,1,2 at x = 0, 1, 3: MST is the chain, cost 3.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 3, Y: 0}}
	tr := Kruskal(matrixFor(pts))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Cost() != 3 {
		t.Errorf("MST cost = %v, want 3", tr.Cost())
	}
	if !tr.HasEdge(0, 1) || !tr.HasEdge(1, 2) {
		t.Errorf("unexpected MST edges: %v", tr.Edges)
	}
}

func TestKruskalTrivialSizes(t *testing.T) {
	for n := 0; n <= 2; n++ {
		tr := Kruskal(matrixFor(randomPoints(rand.New(rand.NewSource(1)), n, 10)))
		if err := tr.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// eagerKruskal is the reference scan the lazy one must reproduce:
// enumerate the complete graph, sort all of it, then take every edge
// that joins two components. With negate it orders by descending weight
// (ties in ascending (U,V) order) and flips the signs back, the
// maximal spanning tree.
func eagerKruskal(dm graph.Weights, negate bool) []graph.Edge {
	edges := graph.CompleteEdges(dm)
	if negate {
		for i := range edges {
			edges[i].W = -edges[i].W
		}
	}
	graph.SortEdges(edges)
	ds := graph.NewDisjointSet(dm.Len())
	var out []graph.Edge
	for _, e := range edges {
		if ds.Union(e.U, e.V) {
			if negate {
				e.W = -e.W
			}
			out = append(out, e)
		}
	}
	return out
}

// sameEdges fails t unless got is want edge for edge, bit for bit.
func sameEdges(t *testing.T, label string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] || math.Signbit(got[k].W) != math.Signbit(want[k].W) {
			t.Fatalf("%s edge %d: got %v, want %v", label, k, got[k], want[k])
		}
	}
}

// lattice returns a side×side grid of unit spacing with every fourth
// point doubled: almost every weight ties, and coincident points add
// zero-weight edges, so the (U,V) tie-break decides most of the order.
func lattice(side int) []geom.Point {
	var pts []geom.Point
	for i := 0; i < side*side; i++ {
		p := geom.Point{X: float64(i % side), Y: float64(i / side)}
		pts = append(pts, p)
		if i%4 == 0 {
			pts = append(pts, p)
		}
	}
	return pts
}

func TestKruskalFromMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean} {
		for _, pts := range [][]geom.Point{
			randomPoints(rng, 1, 100), randomPoints(rng, 2, 100), randomPoints(rng, 3, 100),
			randomPoints(rng, 40, 100), randomPoints(rng, 200, 100), lattice(12),
		} {
			n := len(pts)
			dm := geom.NewDistMatrix(pts, m)
			want := eagerKruskal(dm, false)
			label := fmt.Sprintf("%v n=%d", m, n)
			sameEdges(t, label+" Kruskal", Kruskal(dm).Edges, want)

			// Fed the sparse octant neighbor stream, the scan still
			// selects the same tree: the neighbor graph contains every
			// MST edge (Yao / Guibas–Stolfi) and a greedy scan over a
			// superset of its own selection makes identical decisions.
			sp, err := KruskalFrom(context.Background(), n, graph.NewSparseEdgeStream(geom.NewIndex(pts, m), 0))
			if err != nil {
				t.Fatalf("%s: sparse stream: %v", label, err)
			}
			sameEdges(t, label+" sparse", sp.Edges, want)

			mx, err := Maximal(context.Background(), dm)
			if err != nil {
				t.Fatalf("%s: Maximal: %v", label, err)
			}
			sameEdges(t, label+" Maximal", mx.Edges, eagerKruskal(dm, true))
		}
	}
}

func TestKruskalFromDisconnected(t *testing.T) {
	seq := graph.NewEdgeStreamFrom([]graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := KruskalFrom(context.Background(), 3, seq); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected stream returned %v, want ErrDisconnected", err)
	}
}

// A cancelled context stops the scan at its first poll, one stride into
// the stream: the poll ticks once per stream entry the scan passes,
// yielded or skipped as joined.
func TestKruskalFromCancelledMidScan(t *testing.T) {
	dm := matrixFor(randomPoints(rand.New(rand.NewSource(5)), 300, 1000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := graph.NewEdgeStream(dm)
	if _, err := KruskalFrom(ctx, dm.Len(), s); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	if s.Drained() != cancelStride {
		t.Errorf("cancelled scan passed %d stream entries, want one stride (%d)", s.Drained(), cancelStride)
	}
	if _, err := Maximal(ctx, dm); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Maximal returned %v, want context.Canceled", err)
	}
}

func TestPrimMatchesKruskalCost(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		dm := matrixFor(randomPoints(rng, n, 100))
		k := Kruskal(dm)
		p := Prim(dm, 0)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: Prim invalid: %v", trial, err)
		}
		if math.Abs(k.Cost()-p.Cost()) > 1e-9 {
			t.Errorf("trial %d: Kruskal %v vs Prim %v", trial, k.Cost(), p.Cost())
		}
	}
}

func TestSPTIsStarOnMetricPoints(t *testing.T) {
	// On a metric complete graph, triangle inequality makes every direct
	// edge a shortest path, so the SPT radius equals max direct distance.
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 30, 50)
	dm := matrixFor(pts)
	tr := SPT(dm, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	d := tr.PathLengthsFrom(0)
	for v := 1; v < dm.Len(); v++ {
		if math.Abs(d[v]-dm.At(0, v)) > 1e-9 {
			t.Errorf("SPT path to %d = %v, direct = %v", v, d[v], dm.At(0, v))
		}
	}
}

func TestSPTEdgesRestrictedGraph(t *testing.T) {
	// path graph 0-1-2 with a long shortcut 0-2: SPT must use the shortcut
	// only if shorter.
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 5}}
	tr := SPTEdges(3, edges, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	d := tr.PathLengthsFrom(0)
	if d[2] != 2 {
		t.Errorf("d[2] = %v, want 2", d[2])
	}
	// now make the shortcut attractive
	edges[2].W = 1.5
	tr = SPTEdges(3, edges, 0)
	d = tr.PathLengthsFrom(0)
	if d[2] != 1.5 {
		t.Errorf("d[2] = %v, want 1.5", d[2])
	}
}

func TestSPTEdgesUnreachable(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 1}}
	tr := SPTEdges(3, edges, 0)
	if tr.Connected() {
		t.Error("unreachable node should leave tree disconnected")
	}
}

func TestMaximalAtLeastMST(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(20)
		dm := matrixFor(randomPoints(rng, n, 100))
		mx, err := Maximal(context.Background(), dm)
		if err != nil {
			t.Fatal(err)
		}
		if err := mx.Validate(); err != nil {
			t.Fatal(err)
		}
		if mx.Cost() < Kruskal(dm).Cost()-1e-9 {
			t.Errorf("maximal ST cheaper than MST")
		}
	}
}

// Property: MST cost is minimal among a sample of random spanning trees,
// and the MST is a valid spanning tree.
func TestMSTMinimalityProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%12) + 3
		rng := rand.New(rand.NewSource(seed))
		dm := matrixFor(randomPoints(rng, n, 100))
		mstTree := Kruskal(dm)
		if mstTree.Validate() != nil {
			return false
		}
		c := mstTree.Cost()
		// random spanning trees via random attachment
		for trial := 0; trial < 30; trial++ {
			tr := graph.NewTree(n)
			for v := 1; v < n; v++ {
				u := rng.Intn(v)
				tr.AddEdge(u, v, dm.At(u, v))
			}
			if tr.Cost() < c-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: cut optimality — for every MST edge (u,v), removing it splits
// the tree in two components and (u,v) is a minimum-weight edge across
// that cut.
func TestMSTCutPropertyQuick(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%15) + 3
		rng := rand.New(rand.NewSource(seed))
		dm := matrixFor(randomPoints(rng, n, 100))
		tr := Kruskal(dm)
		for _, e := range tr.Edges {
			cut := tr.Clone()
			cut.RemoveEdge(e.U, e.V)
			side := cut.PathLengthsFrom(e.U)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					aIn := !math.IsInf(side[a], 1)
					bIn := !math.IsInf(side[b], 1)
					if aIn && !bIn && dm.At(a, b) < e.W-1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConstrainedKruskal(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}}
	dm := matrixFor(pts)
	edges := graph.CompleteEdges(dm)
	graph.SortEdges(edges)

	// no constraints: same as MST
	tr, ok := ConstrainedKruskal(4, edges, nil, nil)
	if !ok || math.Abs(tr.Cost()-3) > 1e-9 {
		t.Fatalf("unconstrained cost = %v ok=%v", tr.Cost(), ok)
	}

	// force inclusion of the expensive edge (0,3)
	inc := []graph.Edge{{U: 0, V: 3, W: dm.At(0, 3)}}
	tr, ok = ConstrainedKruskal(4, edges, inc, nil)
	if !ok {
		t.Fatal("inclusion should be satisfiable")
	}
	if !tr.HasEdge(0, 3) {
		t.Error("included edge missing")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// exclude all edges incident to node 3 except (2,3): tree must use it
	ex := map[graph.Key]bool{graph.EdgeKey(0, 3): true, graph.EdgeKey(1, 3): true}
	tr, ok = ConstrainedKruskal(4, edges, nil, ex)
	if !ok || !tr.HasEdge(2, 3) {
		t.Fatalf("exclusion result wrong: ok=%v edges=%v", ok, tr.Edges)
	}

	// cyclic inclusion is infeasible
	incCycle := []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 2},
	}
	if _, ok := ConstrainedKruskal(4, edges, incCycle, nil); ok {
		t.Error("cyclic inclusion accepted")
	}

	// excluding every edge of node 3 is infeasible
	exAll := map[graph.Key]bool{
		graph.EdgeKey(0, 3): true, graph.EdgeKey(1, 3): true, graph.EdgeKey(2, 3): true,
	}
	if _, ok := ConstrainedKruskal(4, edges, nil, exAll); ok {
		t.Error("fully excluded node accepted")
	}
}

func TestConstrainedKruskalTrivial(t *testing.T) {
	if tr, ok := ConstrainedKruskal(1, nil, nil, nil); !ok || len(tr.Edges) != 0 {
		t.Error("single node should be trivially feasible")
	}
	if _, ok := ConstrainedKruskal(1, nil, []graph.Edge{{U: 0, V: 0, W: 0}}, nil); ok {
		t.Error("inclusion on single node should fail")
	}
}

func BenchmarkKruskal200(b *testing.B) {
	dm := matrixFor(randomPoints(rand.New(rand.NewSource(3)), 200, 1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kruskal(dm)
	}
}

func BenchmarkPrim200(b *testing.B) {
	dm := matrixFor(randomPoints(rand.New(rand.NewSource(3)), 200, 1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prim(dm, 0)
	}
}
