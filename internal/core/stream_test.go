package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
)

func randomInstanceMetric(rng *rand.Rand, sinks int, extent float64, m geom.Metric) *inst.Instance {
	pts := make([]geom.Point, sinks)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	src := geom.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	return inst.MustNew(src, pts, m)
}

func sameTree(t *testing.T, label string, got, want *graph.Tree) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil mismatch (got %v, want %v)", label, got, want)
	}
	if got == nil {
		return
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d edges, want %d", label, len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("%s: edge %d = %v, want %v", label, i, got.Edges[i], want.Edges[i])
		}
	}
}

// TestScratchStreamCachePerInstance verifies the sweep-reuse contract:
// one scratch serves many builds on one instance through a single
// stream, rebuilds on an instance switch, and drops everything on
// Release.
func TestScratchStreamCachePerInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inA := randomInstance(rng, 30, 100)
	inB := randomInstance(rng, 30, 100)
	var s Scratch
	if _, err := BKRUSBuild(context.Background(), inA, UpperOnly(inA, 0.2), Config{Scratch: &s}); err != nil {
		t.Fatal(err)
	}
	if s.streamFor != inA || s.stream == nil {
		t.Fatal("scratch did not cache the stream for instance A")
	}
	streamA := s.stream
	if _, err := BKRUSBuild(context.Background(), inA, UpperOnly(inA, 0.4), Config{Scratch: &s}); err != nil {
		t.Fatal(err)
	}
	if s.stream != streamA {
		t.Fatal("second build on the same instance rebuilt the stream")
	}
	if _, err := BKRUSBuild(context.Background(), inB, UpperOnly(inB, 0.2), Config{Scratch: &s}); err != nil {
		t.Fatal(err)
	}
	if s.streamFor != inB || s.stream == streamA {
		t.Fatal("instance switch did not rebuild the stream")
	}
	s.Release()
	if s.stream != nil || s.streamFor != nil {
		t.Fatal("Release left the stream cache populated")
	}
	// A released scratch still works; it just rebuilds the stream.
	tr, err := BKRUSBuild(context.Background(), inA, UpperOnly(inA, 0.2), Config{Scratch: &s})
	if err != nil || tr == nil {
		t.Fatalf("build after Release: %v", err)
	}
}

// bookkeepingCheck recomputes every in-forest path length and radius
// from the partial tree and compares them against the engine's
// incremental P-matrix and r vector.
func bookkeepingCheck(t *testing.T, e *engine, partial *graph.Tree, merges int) {
	t.Helper()
	const tol = 1e-6
	for x := 0; x < e.n; x++ {
		d := partial.PathLengthsFrom(x)
		maxSame := 0.0
		for y := 0; y < e.n; y++ {
			if math.IsInf(d[y], 1) {
				// Different partial trees: P must hold its 0 sentinel.
				if e.path(x, y) != 0 {
					t.Fatalf("after %d merges: P[%d][%d] = %v for cross-tree pair",
						merges, x, y, e.path(x, y))
				}
				continue
			}
			if !geom.EqWithin(e.path(x, y), d[y], tol) {
				t.Fatalf("after %d merges: P[%d][%d] = %v, recomputed %v",
					merges, x, y, e.path(x, y), d[y])
			}
			if d[y] > maxSame {
				maxSame = d[y]
			}
		}
		if !geom.EqWithin(e.r[x], maxSame, tol) {
			t.Fatalf("after %d merges: r[%d] = %v, recomputed %v", merges, x, e.r[x], maxSame)
		}
	}
}

// TestMergeBookkeepingMatchesTreeRecompute is the satellite property
// test: drive the BKRUS scan on random instances and, after accepted
// merges, recompute every in-forest path length and radius from the
// partial tree itself (Tree.PathLengthsFrom). The engine's incremental
// P/r bookkeeping must agree — on both metrics, with and without a
// lower bound, up to n = 200.
func TestMergeBookkeepingMatchesTreeRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type scenario struct {
		sinks      int
		metric     geom.Metric
		lower      bool
		checkEvery int
	}
	scenarios := []scenario{
		{sinks: 12, metric: geom.Manhattan, lower: false, checkEvery: 1},
		{sinks: 12, metric: geom.Euclidean, lower: true, checkEvery: 1},
		{sinks: 40, metric: geom.Manhattan, lower: true, checkEvery: 1},
		{sinks: 40, metric: geom.Euclidean, lower: false, checkEvery: 1},
		{sinks: 199, metric: geom.Manhattan, lower: false, checkEvery: 25},
		{sinks: 199, metric: geom.Euclidean, lower: true, checkEvery: 25},
	}
	for _, sc := range scenarios {
		in := randomInstanceMetric(rng, sc.sinks, 100, sc.metric)
		b := UpperOnly(in, 0.3)
		if sc.lower {
			b = LowerUpper(in, 0.25, 0.3)
		}
		e := newEngine(in, b, Config{})
		partial := graph.NewTree(e.n)
		merges := 0
		// Mirror of engine.run's accept/reject scan, instrumented with
		// the recompute check after accepted merges.
		for len(partial.Edges) < e.n-1 {
			ed, ok := e.stream.Next()
			if !ok {
				break
			}
			if e.ds.Same(ed.U, ed.V) {
				continue
			}
			if (ed.U == graph.Source || ed.V == graph.Source) && !e.b.WithinLower(ed.W) {
				continue
			}
			if !e.feasible(ed) {
				continue
			}
			e.merge(ed)
			e.ds.Union(ed.U, ed.V)
			e.refreshByBase(ed.U)
			partial.AddEdge(ed.U, ed.V, ed.W)
			merges++
			if merges%sc.checkEvery == 0 || len(partial.Edges) == e.n-1 {
				bookkeepingCheck(t, e, partial, merges)
			}
		}
		if merges == 0 {
			t.Fatalf("scenario %+v: no merges accepted, property vacuous", sc)
		}
		bookkeepingCheck(t, e, partial, merges)
	}
}
