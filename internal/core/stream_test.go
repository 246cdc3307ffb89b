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
// from the partial tree and compares them with the state the forest
// keeps, which is the same on both substrates: its adjacency (the
// partial tree's edges, in acceptance order), the source paths of the
// source-tree members (distS, +Inf everywhere else), and, inside every
// source-free tree, the radii and the live list. The live list is
// compared as a set: it must hold exactly the members whose base
// dist(S,x) + r[x] passes Upper and whose dist(S,x) passes Lower, in any
// order. The source tree's radii and live list are never read again
// once the source joins, so the forest does not keep them.
func bookkeepingCheck(t *testing.T, e *engine, partial *graph.Tree, merges int) {
	t.Helper()
	const tol = 1e-6
	f := e.f
	for x, want := range partial.Adjacency() {
		if got := forestAdj(f, x); !slices.Equal(got, want) {
			t.Fatalf("after %d merges: adj[%d] = %v, partial tree has %v", merges, x, got, want)
		}
	}
	dS := partial.PathLengthsFrom(graph.Source)
	for y := 0; y < e.n; y++ {
		inSource := !math.IsInf(dS[y], 1)
		switch {
		case inSource && !geom.EqWithin(f.distS[y], dS[y], tol):
			t.Fatalf("after %d merges: distS[%d] = %v, recomputed %v", merges, y, f.distS[y], dS[y])
		case !inSource && !math.IsInf(f.distS[y], 1):
			t.Fatalf("after %d merges: distS[%d] = %v outside the source tree", merges, y, f.distS[y])
		}
	}
	radius := make([]float64, e.n)
	for x := 0; x < e.n; x++ {
		if !math.IsInf(dS[x], 1) {
			continue
		}
		for _, d := range partial.PathLengthsFrom(x) {
			if !math.IsInf(d, 1) && d > radius[x] {
				radius[x] = d
			}
		}
		if !geom.EqWithin(f.r[x], radius[x], tol) {
			t.Fatalf("after %d merges: r[%d] = %v, recomputed %v", merges, x, f.r[x], radius[x])
		}
	}
	for x := 0; x < e.n; x++ {
		if f.ds.Find(x) != x || !math.IsInf(dS[x], 1) {
			continue
		}
		var want []int32
		for _, m := range f.ds.Members(x) {
			dSm := f.dS[m]
			if e.b.WithinUpper(dSm+radius[m]) && e.b.WithinLower(dSm) {
				want = append(want, int32(m))
			}
		}
		got := slices.Clone(f.live[x])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("after %d merges: live list of %d holds %v, want %v", merges, x, got, want)
		}
	}
}

// forestAdj reads x's chain of half-edges out of the forest's arena, in
// acceptance order.
func forestAdj(f *Forest, x int) []graph.Adj {
	var adj []graph.Adj
	for h := f.head[x]; h >= 0; h = f.half[h].next {
		adj = append(adj, graph.Adj{To: int(f.half[h].to), W: f.half[h].w})
	}
	return adj
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
		ed, ok, _ := e.stream.Next(e.f.ds, nil)
		if !ok {
			break
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
		e.f.Link(ed.U, ed.V, ed.W)
		merges++
		if after != nil {
			after(ed)
		}
	}
	return merges
}

// TestTooFarNeverPrunesAWitness checks the witness scan's distance
// prune against the exact test it stands in for: at every (3-b)
// candidate, every live member on either side that tooFar prunes must
// fail the exact witness test. Tight bounds and a lattice (integer L1
// distances, so staircase tree paths equal the straight line exactly)
// put many members right at the bound.
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
				f := e.f
				side := func(u, v int, w float64) {
					path := slices.Clone(f.PathsFrom(u))
					for _, m := range f.live[f.ds.Find(u)] {
						x := int(m)
						if !f.tooFar(u, x, w, f.r[v]) {
							continue
						}
						pruned++
						if f.b.WithinUpper(f.dS[x] + math.Max(f.r[x], path[x]+w+f.r[v])) {
							t.Fatalf("%s eps=%g: tooFar pruned witness %d for edge (%d,%d)", geo, eps, x, u, v)
						}
					}
				}
				scanByHand(e, func(ed graph.Edge) {
					if !f.InSource(ed.U) && !f.InSource(ed.V) {
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
// live-list buffers it retains must level off near n·log n rather than
// grow with every instance; a buffer tied to a set's name would grow,
// in time, to the largest set each name ever stood for.
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
	for _, live := range s.f.live {
		retained += cap(live)
	}
	if limit := 3 * nodes * int(math.Log2(nodes)); retained > limit {
		t.Fatalf("after %d instances the live lists retain %d entries, over 3·n·log2 n = %d", builds, retained, limit)
	}
	t.Logf("retained %d entries (%.1f·n)", retained, float64(retained)/nodes)
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

// TestFreshScratchMemBytes: a scratch no build has used holds nothing,
// its forest not even a disjoint set, and MemBytes must bill zero
// rather than reach through the nil set.
func TestFreshScratchMemBytes(t *testing.T) {
	if got := new(Scratch).MemBytes(); got != 0 {
		t.Fatalf("fresh scratch MemBytes = %d, want 0", got)
	}
}

// TestNilScratchEdgeStream: a nil scratch serves a fresh stream over
// the whole complete graph, cached nowhere, as its doc promises.
func TestNilScratchEdgeStream(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(5)), 39, 100)
	var s *Scratch
	n := in.N()
	if got, want := s.EdgeStream(in, GeomDense).Len(), n*(n-1)/2; got != want {
		t.Fatalf("nil scratch stream holds %d edges, want %d", got, want)
	}
}

// TestForestArenaAfterShrink pins the half-edge arena's sizing and the
// forest's byte accounting across a Reset to a smaller instance, as a
// pooled scratch sees: the arena grows by append to the 2(n−1)
// half-edges a full build links, a Reset to n = 100 keeps its capacity
// and the n = 10⁴ buffers, and MemBytes still counts all of them,
// including the live lists past the new n.
func TestForestArenaAfterShrink(t *testing.T) {
	var s Scratch
	build := func(nodes int) {
		t.Helper()
		in := randomInstance(rand.New(rand.NewSource(int64(nodes))), nodes-1, 1000)
		if _, err := BKRUSBuild(context.Background(), in, UpperOnly(in, 0.5), Config{Scratch: &s, Geometry: GeomSparse}); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	const big, small = 10000, 100
	build(big)
	f := &s.f
	bigCap := cap(f.half)
	if len(f.half) != 2*(big-1) {
		t.Fatalf("after an n = %d build the arena holds %d half-edges, want %d", big, len(f.half), 2*(big-1))
	}
	build(small)
	if len(f.half) != 2*(small-1) || cap(f.half) != bigCap {
		t.Fatalf("after an n = %d build the arena holds %d of %d half-edges, want %d of the retained %d",
			small, len(f.half), cap(f.half), 2*(small-1), bigCap)
	}
	// Every buffer the forest holds, summed independently of MemBytes:
	// the arena and the per-node arrays sized by the n = 10⁴ build, the
	// DFS stack, every live list (the ones past n = 100 too) and the
	// disjoint set.
	want := int64(bigCap)*halfEdgeBytes + int64(big)*(3*4+4*8) + int64(cap(f.stack))*4 + f.ds.MemBytes()
	want += int64(cap(f.live)) * 24
	for _, l := range f.live[:cap(f.live)] {
		want += int64(cap(l)) * 4
	}
	if got := f.MemBytes(); got != want {
		t.Fatalf("MemBytes after the shrink = %d, want %d", got, want)
	}
}
