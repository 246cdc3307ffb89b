package graph

import (
	"math/rand"
	"testing"

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

func TestEdgeStreamMatchesSortEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 10, 40, 90} {
		edges := randomEdges(rng, n)
		want := append([]Edge(nil), edges...)
		SortEdges(want)

		s := NewEdgeStreamFrom(edges)
		if s.Len() != len(want) {
			t.Fatalf("n=%d: Len = %d, want %d", n, s.Len(), len(want))
		}
		for i, w := range want {
			got, ok := s.Next()
			if !ok {
				t.Fatalf("n=%d: stream ended at %d/%d", n, i, len(want))
			}
			if got != w {
				t.Fatalf("n=%d: edge %d = %v, want %v", n, i, got, w)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("n=%d: stream yielded past the end", n)
		}
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
// and 3) the merge sort is byte-identical to SortEdges.
func TestParallelSortEdgesMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// 120 nodes -> 7140 edges, above parallelSortMin.
	edges := randomEdges(rng, 120)
	want := append([]Edge(nil), edges...)
	SortEdges(want)

	for _, c := range []struct{ workers, depth int }{{2, 1}, {4, 2}, {8, 3}} {
		got := append([]Edge(nil), edges...)
		parallelMergeSort(got, make([]Edge, len(got)), c.depth)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: edge %d = %v, want %v", c.workers, i, got[i], want[i])
			}
		}
	}
}
