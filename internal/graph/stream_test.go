package graph

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// randomEdges builds a shuffled edge set with deliberately heavy weight
// ties (weights drawn from a small integer range) so tie-break order is
// actually exercised.
func randomEdges(rng *rand.Rand, n int) []Edge {
	edges := make([]Edge, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: u, V: v, W: float64(rng.Intn(7))})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

func randomPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		// Integer grid coordinates force plenty of exact distance ties.
		pts[i] = geom.Point{X: float64(rng.Intn(50)), Y: float64(rng.Intn(50))}
	}
	return pts
}

// extremeEdges builds every ordered pair over a node set that mixes
// small ids with ids up to 2³¹−1, so half the edges are non-canonical
// (U > V) and the packed key's high and low words both carry large
// values. Weights come from {+0, −0, 1, 2}: heavy ties, including ties
// between the two zeros, which compare equal but must come back with
// their sign bits intact.
func extremeEdges(rng *rand.Rand) []Edge {
	var ids []int
	for i := 0; i < 20; i++ {
		ids = append(ids, i, math.MaxInt32-i)
	}
	ids = append(ids, 1<<16, 1<<31-1<<16)
	weights := []float64{0, math.Copysign(0, -1), 1, 2}
	var edges []Edge
	for _, u := range ids {
		for _, v := range ids {
			if u != v {
				edges = append(edges, Edge{U: u, V: v, W: weights[rng.Intn(len(weights))]})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// sameEdge compares weights by bits, so +0 and −0 differ.
func sameEdge(a, b Edge) bool {
	return a.U == b.U && a.V == b.V && math.Float64bits(a.W) == math.Float64bits(b.W)
}

func TestEdgeStreamMatchesSortEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var inputs [][]Edge
	for _, n := range []int{0, 1, 2, 3, 10, 40, 90} {
		inputs = append(inputs, randomEdges(rng, n))
	}
	inputs = append(inputs, extremeEdges(rng))
	for k, edges := range inputs {
		want := append([]Edge(nil), edges...)
		SortEdges(want)

		s := NewEdgeStreamFrom(edges)
		if s.Len() != len(want) {
			t.Fatalf("input %d: Len = %d, want %d", k, s.Len(), len(want))
		}
		for i, w := range want {
			got, ok := s.Next()
			if !ok {
				t.Fatalf("input %d: stream ended at %d/%d", k, i, len(want))
			}
			if !sameEdge(got, w) {
				t.Fatalf("input %d: edge %d = %v, want %v", k, i, got, w)
			}
			if i > 0 && compareEdges(want[i-1], w) >= 0 {
				t.Fatalf("input %d: SortEdges left %v before %v", k, want[i-1], w)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("input %d: stream yielded past the end", k)
		}
	}
}

// TestEdgeStreamVertexIDGuard pins the boundary check behind the packed
// key: ids in [0, 2³¹−1] are accepted, anything else panics instead of
// silently colliding in the key.
func TestEdgeStreamVertexIDGuard(t *testing.T) {
	NewEdgeStreamFrom([]Edge{{U: math.MaxInt32, V: 0, W: 1}})
	for _, e := range []Edge{{U: -1, V: 0}, {U: 0, V: -1}, {U: math.MaxInt32 + 1, V: 0}, {U: 0, V: 1 << 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEdgeStreamFrom accepted %v", e)
				}
			}()
			NewEdgeStreamFrom([]Edge{e})
		}()
	}
}

func TestPackedEdgeSize(t *testing.T) {
	if got := unsafe.Sizeof(packedEdge{}); got != packedEdgeBytes {
		t.Fatalf("packedEdge is %d bytes, packedEdgeBytes says %d", got, packedEdgeBytes)
	}
}

func TestEdgeStreamFromWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean} {
		dm := geom.NewDistMatrix(randomPoints(rng, 35), m)
		want := CompleteEdges(dm)
		SortEdges(want)
		s := NewEdgeStream(dm)
		for i, w := range want {
			got, ok := s.Next()
			if !ok || got != w {
				t.Fatalf("%v: edge %d = %v ok=%v, want %v", m, i, got, ok, w)
			}
		}
	}
}

func TestEdgeStreamPartialDrainAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := randomEdges(rng, 40)
	want := append([]Edge(nil), edges...)
	SortEdges(want)

	s := NewEdgeStreamFrom(edges)
	k := len(want) / 4
	for i := 0; i < k; i++ {
		got, ok := s.Next()
		if !ok || got != want[i] {
			t.Fatalf("first pass edge %d = %v ok=%v, want %v", i, got, ok, want[i])
		}
	}
	if s.Drained() != k {
		t.Fatalf("Drained = %d, want %d", s.Drained(), k)
	}
	if sp := s.SortedPrefix(); sp < k || sp > len(want) {
		t.Fatalf("SortedPrefix = %d out of range [%d,%d]", sp, k, len(want))
	}
	batchesAfterFirst := s.Batches()

	// A reset pass re-serves the sorted prefix without new batches, then
	// extends deeper.
	s.Reset()
	if s.Drained() != 0 {
		t.Fatalf("Drained after Reset = %d", s.Drained())
	}
	for i := 0; i < s.SortedPrefix(); i++ {
		got, ok := s.Next()
		if !ok || got != want[i] {
			t.Fatalf("reset pass edge %d = %v ok=%v, want %v", i, got, ok, want[i])
		}
	}
	if s.Batches() != batchesAfterFirst {
		t.Fatalf("re-serving the sorted prefix sorted new batches: %d -> %d", batchesAfterFirst, s.Batches())
	}
	for i := s.Drained(); i < len(want); i++ {
		got, ok := s.Next()
		if !ok || got != want[i] {
			t.Fatalf("deep pass edge %d = %v ok=%v, want %v", i, got, ok, want[i])
		}
	}
}

func TestEdgeStreamFallbackSortsWholeTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := randomEdges(rng, 80) // 3160 edges, many batches without fallback
	want := append([]Edge(nil), edges...)
	SortEdges(want)

	s := NewEdgeStreamFrom(edges)
	for i := range want {
		got, ok := s.Next()
		if !ok || got != want[i] {
			t.Fatalf("edge %d = %v ok=%v, want %v", i, got, ok, want[i])
		}
	}
	if s.Fallbacks() != 1 {
		t.Fatalf("Fallbacks = %d, want exactly 1 for a full drain", s.Fallbacks())
	}
	if s.SortedPrefix() != s.Len() {
		t.Fatalf("SortedPrefix = %d, want %d after full drain", s.SortedPrefix(), s.Len())
	}
}

// TestParallelSortEdgesMatchesSerial pins the determinism contract of
// the fallback sort kernel: at 2, 4 and 8 workers (recursion depth 1, 2
// and 3) the merge sort over the stream's packed entries is
// byte-identical to SortEdges.
func TestParallelSortEdgesMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// 120 nodes -> 7140 edges, above parallelSortMin.
	edges := randomEdges(rng, 120)
	want := append([]Edge(nil), edges...)
	SortEdges(want)

	for _, c := range []struct{ workers, depth int }{{2, 1}, {4, 2}, {8, 3}} {
		got := NewEdgeStreamFrom(edges).edges
		parallelMergeSort(got, make([]packedEdge, len(got)), c.depth)
		for i := range want {
			if got[i].edge() != want[i] {
				t.Fatalf("workers=%d: edge %d = %v, want %v", c.workers, i, got[i].edge(), want[i])
			}
		}
	}
}
