package core

// Property tests for the sparse-substrate exactness invariant: the
// octant/spiral neighbor graph (plus the source star) contains every
// edge the dense constructions actually select — every mst.Kruskal
// edge and every edge dense-path BKRUS merges — so running the same
// scan over the sparse candidate set reproduces the dense result.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

// propertyCorpus enumerates the fixed-seed random instances the
// satellite tests run over: both metrics, n up to 500.
func propertyCorpus(t *testing.T, fn func(name string, in *inst.Instance)) {
	t.Helper()
	for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean} {
		for _, n := range []int{25, 100, 500} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(n) + int64(m)))
				sinks := make([]geom.Point, n-1)
				for i := range sinks {
					sinks[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				}
				src := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				in := inst.MustNew(src, sinks, m)
				fn(in.Metric().String()+"/"+string(rune('0'+seed)), in)
			}
		}
	}
}

func neighborKeySet(in *inst.Instance) map[graph.Key]bool {
	edges := graph.NeighborEdges(in.Index(), graph.Source)
	set := make(map[graph.Key]bool, len(edges))
	for _, e := range edges {
		set[e.Key()] = true
	}
	return set
}

func TestNeighborGraphContainsKruskalEdges(t *testing.T) {
	propertyCorpus(t, func(name string, in *inst.Instance) {
		set := neighborKeySet(in)
		kt := mst.Kruskal(in.DistMatrix())
		for _, e := range kt.Edges {
			if !set[e.Key()] {
				t.Fatalf("%s n=%d: Kruskal edge %v missing from neighbor graph", name, in.N(), e)
			}
		}
	})
}

// propertyEps is the slack-bound regime where the exactness invariant
// holds: BKRUS selections stay inside the neighbor graph once the
// bound stops forcing non-local merges (measured crossover ≈ ε = 2 on
// uniform instances; at ε = +Inf BKRUS is exactly Kruskal, where
// containment is the Yao/Guibas–Stolfi theorem). Below this regime the
// dense path can accept arbitrarily non-local tree-tree edges — see
// TestSparseTightBoundEnvelope for the guarantee that replaces
// exactness there, and DESIGN.md §13 for the analysis.
var propertyEps = []float64{2, 4, math.Inf(1)}

func TestNeighborGraphContainsDenseBKRUSEdges(t *testing.T) {
	propertyCorpus(t, func(name string, in *inst.Instance) {
		set := neighborKeySet(in)
		for _, eps := range propertyEps {
			tr, err := bkrus(in, eps)
			if err != nil {
				t.Fatalf("%s n=%d eps=%g: dense BKRUS failed: %v", name, in.N(), eps, err)
			}
			for _, e := range tr.Edges {
				if !set[e.Key()] {
					t.Fatalf("%s n=%d eps=%g: BKRUS edge %v missing from neighbor graph", name, in.N(), eps, e)
				}
			}
		}
	})
}

// TestSparseBKRUSMatchesDense pins the conformance satellite's second
// half: on the property-test corpus, forcing the sparse substrate
// reproduces the dense-mode tree edge for edge — hence cost for cost —
// at every ε, including the unconstrained MST case.
func TestSparseBKRUSMatchesDense(t *testing.T) {
	propertyCorpus(t, func(name string, in *inst.Instance) {
		for _, eps := range propertyEps {
			b := UpperOnly(in, eps)
			dense, err := BKRUSBuild(t.Context(), in, b, Config{Geometry: GeomDense})
			if err != nil {
				t.Fatalf("%s eps=%g: dense failed: %v", name, eps, err)
			}
			sparse, err := BKRUSBuild(t.Context(), in, b, Config{Geometry: GeomSparse})
			if err != nil {
				t.Fatalf("%s eps=%g: sparse failed: %v", name, eps, err)
			}
			if len(dense.Edges) != len(sparse.Edges) {
				t.Fatalf("%s eps=%g: edge counts differ: dense %d, sparse %d",
					name, eps, len(dense.Edges), len(sparse.Edges))
			}
			for k := range dense.Edges {
				if dense.Edges[k] != sparse.Edges[k] {
					t.Fatalf("%s n=%d eps=%g: edge %d differs: dense %v, sparse %v",
						name, in.N(), eps, k, dense.Edges[k], sparse.Edges[k])
				}
			}
		}
	})
}

// TestSparseTightBoundEnvelope covers the regime the exactness
// invariant deliberately excludes: under tight bounds the dense scan
// accepts non-local edges no fixed neighbor structure contains, so the
// sparse tree may differ — but it must always exist (the source star
// keeps upper-only instances completable), always satisfy the bound,
// and stay within a small cost envelope of the dense result (measured
// worst case 1.22× at ε = 0 on this corpus; 1.25 is the pinned
// ceiling).
func TestSparseTightBoundEnvelope(t *testing.T) {
	propertyCorpus(t, func(name string, in *inst.Instance) {
		for _, eps := range []float64{0, 0.1, 0.5, 1} {
			b := UpperOnly(in, eps)
			dense, err := BKRUSBuild(t.Context(), in, b, Config{Geometry: GeomDense})
			if err != nil {
				t.Fatalf("%s eps=%g: dense failed: %v", name, eps, err)
			}
			sparse, err := BKRUSBuild(t.Context(), in, b, Config{Geometry: GeomSparse})
			if err != nil {
				t.Fatalf("%s eps=%g: sparse failed: %v", name, eps, err)
			}
			if !FeasibleTree(sparse, b) {
				t.Fatalf("%s eps=%g: sparse tree violates bound", name, eps)
			}
			if ratio := sparse.Cost() / dense.Cost(); ratio > 1.25 {
				t.Fatalf("%s n=%d eps=%g: sparse cost %.4f× dense, exceeds 1.25 envelope",
					name, in.N(), eps, ratio)
			}
		}
	})
}

// TestSparseLowerUpper covers the sparse substrate under a lower bound,
// which acts on the source-merge path (Lemma 6.1 and the lower test of
// condition (3-a)): every build either returns a tree that meets the
// window or returns ErrInfeasible, and a zero lower bound reproduces the
// upper-only tree edge for edge.
func TestSparseLowerUpper(t *testing.T) {
	feasible := 0
	propertyCorpus(t, func(name string, in *inst.Instance) {
		sparse := Config{Geometry: GeomSparse}
		for _, eps2 := range []float64{0.5, 2} {
			for _, eps1 := range []float64{0.1, 0.25} {
				b := LowerUpper(in, eps1, eps2)
				tr, err := BKRUSBuild(context.Background(), in, b, sparse)
				switch {
				case errors.Is(err, ErrInfeasible):
				case err != nil:
					t.Fatalf("%s n=%d eps1=%g eps2=%g: %v", name, in.N(), eps1, eps2, err)
				case !FeasibleTree(tr, b):
					t.Fatalf("%s n=%d eps1=%g eps2=%g: tree violates the window", name, in.N(), eps1, eps2)
				default:
					feasible++
				}
			}
			upper, err := BKRUSBuild(context.Background(), in, UpperOnly(in, eps2), sparse)
			if err != nil {
				t.Fatalf("%s n=%d eps=%g: upper-only: %v", name, in.N(), eps2, err)
			}
			zero, err := BKRUSBuild(context.Background(), in, LowerUpper(in, 0, eps2), sparse)
			if err != nil {
				t.Fatalf("%s n=%d eps=%g: zero lower bound: %v", name, in.N(), eps2, err)
			}
			sameTree(t, name+" LowerUpper(0, eps) vs UpperOnly(eps)", zero, upper)
		}
	})
	if feasible == 0 {
		t.Fatal("no lower+upper build succeeded; the feasibility branch is vacuous")
	}
	t.Logf("%d feasible lower+upper builds", feasible)
}

// TestSparseBKRUSFeasibleWithScratch exercises the pooled-scratch
// sparse path, including stream caching across an ε-sweep and reuse of
// the same scratch for a dense run afterwards (mode switch).
func TestSparseBKRUSFeasibleWithScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sinks := make([]geom.Point, 300)
	for i := range sinks {
		sinks[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	in := inst.MustNew(geom.Point{X: 50, Y: 50}, sinks, geom.Euclidean)
	var s Scratch
	for _, eps := range []float64{0.5, 2, math.Inf(1)} {
		b := UpperOnly(in, eps)
		tr, err := BKRUSBuild(t.Context(), in, b, Config{Geometry: GeomSparse, Scratch: &s})
		if err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		if !FeasibleTree(tr, b) {
			t.Fatalf("eps=%g: sparse tree violates bound", eps)
		}
		// The pooled-scratch run must agree with the scratchless sparse
		// run edge for edge: stream caching and buffer reuse are pure
		// plumbing.
		want, err := BKRUSBuild(t.Context(), in, b, Config{Geometry: GeomSparse})
		if err != nil {
			t.Fatalf("eps=%g scratchless: %v", eps, err)
		}
		if len(tr.Edges) != len(want.Edges) {
			t.Fatalf("eps=%g: scratch run edge count %d, scratchless %d", eps, len(tr.Edges), len(want.Edges))
		}
		for k := range want.Edges {
			if tr.Edges[k] != want.Edges[k] {
				t.Fatalf("eps=%g edge %d: scratch %v, scratchless %v", eps, k, tr.Edges[k], want.Edges[k])
			}
		}
	}
	if s.MemBytes() <= 0 {
		t.Fatalf("scratch MemBytes = %d, want > 0", s.MemBytes())
	}
	// Mode switch on the same scratch: the cached sparse stream must not
	// leak into a dense run.
	bInf := UpperOnly(in, math.Inf(1))
	dt, err := BKRUSBuild(t.Context(), in, bInf, Config{Geometry: GeomDense, Scratch: &s})
	if err != nil {
		t.Fatalf("dense after sparse: %v", err)
	}
	if want := mst.Kruskal(in.DistMatrix()); dt.Cost() != want.Cost() {
		t.Fatalf("dense-after-sparse cost %g, Kruskal cost %g", dt.Cost(), want.Cost())
	}
}

// TestGeometryResolution pins the mode arithmetic and the auto
// threshold the conformance suite relies on.
func TestGeometryResolution(t *testing.T) {
	if GeomAuto.Sparse(SparseThreshold) || !GeomAuto.Sparse(SparseThreshold+1) {
		t.Fatal("auto mode must cross over just above SparseThreshold")
	}
	if GeomDense.Sparse(1<<20) || !GeomSparse.Sparse(2) {
		t.Fatal("forced modes must ignore instance size")
	}
	if GeomAuto.String() != "auto" || GeomDense.String() != "dense" || GeomSparse.String() != "sparse" {
		t.Fatal("Geometry.String mismatch")
	}
}
