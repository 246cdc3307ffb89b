package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
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
// from the partial tree and compares them with the state the engine
// keeps, which is the same on both substrates: the forest's adjacency
// (the partial tree's edges, in acceptance order), the source paths of
// the source-tree members (distS, +Inf everywhere else), and, inside
// every source-free tree, the radii and the witness order. The source
// tree's radii and witness order are never read again once the source
// joins, so the engine does not keep them.
func bookkeepingCheck(t *testing.T, e *engine, partial *graph.Tree, merges int) {
	t.Helper()
	const tol = 1e-6
	for x, want := range partial.Adjacency() {
		if !slices.Equal(e.adj[x], want) {
			t.Fatalf("after %d merges: adj[%d] = %v, partial tree has %v", merges, x, e.adj[x], want)
		}
	}
	dS := partial.PathLengthsFrom(graph.Source)
	for y := 0; y < e.n; y++ {
		inSource := !math.IsInf(dS[y], 1)
		switch {
		case inSource && !geom.EqWithin(e.distS[y], dS[y], tol):
			t.Fatalf("after %d merges: distS[%d] = %v, recomputed %v", merges, y, e.distS[y], dS[y])
		case !inSource && !math.IsInf(e.distS[y], 1):
			t.Fatalf("after %d merges: distS[%d] = %v outside the source tree", merges, y, e.distS[y])
		}
	}
	for x := 0; x < e.n; x++ {
		if !math.IsInf(dS[x], 1) {
			continue
		}
		maxSame := 0.0
		for _, d := range partial.PathLengthsFrom(x) {
			if !math.IsInf(d, 1) && d > maxSame {
				maxSame = d
			}
		}
		if !geom.EqWithin(e.r[x], maxSame, tol) {
			t.Fatalf("after %d merges: r[%d] = %v, recomputed %v", merges, x, e.r[x], maxSame)
		}
		if rep := e.ds.Find(x); rep == x {
			order := e.byBase[rep]
			if len(order) != e.ds.Size(x) {
				t.Fatalf("after %d merges: witness order of %d lists %d of %d members",
					merges, rep, len(order), e.ds.Size(x))
			}
			for k, m := range order {
				if e.ds.Find(m.x) != rep || m.base != e.witnessBase(m.x) || k > 0 && order[k-1].base > m.base {
					t.Fatalf("after %d merges: witness order of %d is %v", merges, rep, order)
				}
			}
		}
	}
}

// TestMergeBookkeepingMatchesTreeRecompute drives the BKRUS scan on
// random instances on both substrates and, after accepted merges,
// recomputes every in-forest path length and radius from the partial
// tree itself (Tree.PathLengthsFrom). The state the engine keeps must
// agree — on both metrics, with and without a lower bound, up to
// n = 200.
func TestMergeBookkeepingMatchesTreeRecompute(t *testing.T) {
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
	for _, geo := range []Geometry{GeomDense, GeomSparse} {
		rng := rand.New(rand.NewSource(41))
		for _, sc := range scenarios {
			in := randomInstanceMetric(rng, sc.sinks, 100, sc.metric)
			b := UpperOnly(in, 0.3)
			if sc.lower {
				b = LowerUpper(in, 0.25, 0.3)
			}
			e := newEngine(in, b, Config{Geometry: geo})
			partial := graph.NewTree(e.n)
			merges := scanByHand(e, nil, func(ed graph.Edge) {
				partial.AddEdge(ed.U, ed.V, ed.W)
				if len(partial.Edges)%sc.checkEvery == 0 || len(partial.Edges) == e.n-1 {
					bookkeepingCheck(t, e, partial, len(partial.Edges))
				}
			})
			if merges == 0 {
				t.Fatalf("%s scenario %+v: no merges accepted, property vacuous", geo, sc)
			}
			bookkeepingCheck(t, e, partial, merges)
		}
	}
}

// scanByHand is engine.run's accept/reject scan, step by step: before
// sees every candidate that reaches the feasibility test, after every
// accepted edge once it is merged; either may be nil. It returns the
// number of merges.
func scanByHand(e *engine, before, after func(graph.Edge)) int {
	merges := 0
	for merges < e.n-1 {
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
		if before != nil {
			before(ed)
		}
		if !e.feasible(ed) {
			continue
		}
		e.accept(ed)
		merges++
		if after != nil {
			after(ed)
		}
	}
	return merges
}

// TestTooFarNeverPrunesAWitness checks the witness scan's distance
// prune against the exact test it stands in for: at every (3-b)
// candidate, every member the scan may read on either side that tooFar
// prunes must fail the exact witness test. Tight bounds and a lattice
// (integer L1 distances, so staircase tree paths equal the straight
// line exactly) put many members right at the bound.
func TestTooFarNeverPrunesAWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	instances := []*inst.Instance{
		latticeInstance(15),
		randomInstanceMetric(rng, 150, 100, geom.Manhattan),
		randomInstanceMetric(rng, 150, 100, geom.Euclidean),
	}
	pruned := 0
	for _, in := range instances {
		for _, geo := range []Geometry{GeomDense, GeomSparse} {
			for _, eps := range []float64{0, 0.1, 0.5} {
				e := newEngine(in, UpperOnly(in, eps), Config{Geometry: geo})
				side := func(u, v int, w float64) {
					path := append([]float64(nil), e.pathsFrom(u)...)
					for _, m := range e.byBase[e.ds.Find(u)] {
						x := m.x
						if !e.b.WithinUpper(m.base) {
							break
						}
						if !e.tooFar(u, x, w, e.r[v]) {
							continue
						}
						pruned++
						if e.witnessOK(x, math.Max(e.r[x], path[x]+w+e.r[v])) {
							t.Fatalf("%s eps=%g: tooFar pruned witness %d for edge (%d,%d)", geo, eps, x, u, v)
						}
					}
				}
				scanByHand(e, func(ed graph.Edge) {
					if !e.ds.Same(graph.Source, ed.U) && !e.ds.Same(graph.Source, ed.V) {
						side(ed.U, ed.V, ed.W)
						side(ed.V, ed.U, ed.W)
					}
				}, nil)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("tooFar never fired; the property is vacuous")
	}
	t.Logf("%d pruned members checked", pruned)
}

// TestScratchWitnessOrderStaysBounded builds many distinct instances
// through one scratch, as a pooled scratch in a server does. The
// witness-order buffers it retains must level off near n·log n rather
// than grow with every instance; a buffer tied to a set's name would
// grow, in time, to the largest set each name ever stood for.
func TestScratchWitnessOrderStaysBounded(t *testing.T) {
	const nodes, builds = 1000, 30
	var s Scratch
	for i := 0; i < builds; i++ {
		in := randomInstance(rand.New(rand.NewSource(int64(i))), nodes-1, 1000)
		eps := []float64{0.1, 0.5, 2}[i%3]
		if _, err := BKRUSBuild(context.Background(), in, UpperOnly(in, eps), Config{Scratch: &s, Geometry: GeomSparse}); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	retained := 0
	for _, order := range s.byBase {
		retained += cap(order)
	}
	if limit := 3 * nodes * int(math.Log2(nodes)); retained > limit {
		t.Fatalf("after %d instances the witness orders retain %d entries, over 3·n·log2 n = %d", builds, retained, limit)
	}
}

// TestReleasedScratchHoldsNoQuadraticState builds a dense n = 1000
// instance through a scratch and releases it, as engine.Build does
// before parking a pooled scratch. What the scratch still retains is
// what a server's byte budget charges for it, and it must be O(n): an
// n² buffer (an 8 MB path matrix at this size) would make every parked
// scratch cost as much as the instance it last served.
func TestReleasedScratchHoldsNoQuadraticState(t *testing.T) {
	const nodes = 1000
	in := randomInstance(rand.New(rand.NewSource(nodes)), nodes-1, 1000)
	var s Scratch
	for _, eps := range []float64{0, 0.1, 2} {
		if _, err := BKRUSBuild(context.Background(), in, UpperOnly(in, eps), Config{Scratch: &s, Geometry: GeomDense}); err != nil {
			t.Fatal(err)
		}
	}
	s.Release()
	if got := s.MemBytes(); got <= 0 || got >= 1<<20 {
		t.Fatalf("released scratch retains %d bytes after a dense n = %d build, want (0, 1 MiB)", got, nodes)
	}
}
