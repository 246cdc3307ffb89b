package graph

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randSparsePoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

func TestNeighborEdgesWellFormed(t *testing.T) {
	for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean} {
		for _, n := range []int{1, 2, 5, 40, 150} {
			rng := rand.New(rand.NewSource(int64(n)*17 + int64(m)))
			pts := randSparsePoints(rng, n)
			ix := geom.NewIndex(pts, m)
			edges := NeighborEdges(ix, Source)
			if max := (geom.Octants + 1) * n; len(edges) > max {
				t.Fatalf("%v n=%d: %d edges exceeds sparse cap %d", m, n, len(edges), max)
			}
			seen := make(map[Key]bool, len(edges))
			starSeen := 0
			for _, e := range edges {
				if e.U >= e.V {
					t.Fatalf("%v n=%d: non-canonical edge %v", m, n, e)
				}
				if seen[e.Key()] {
					t.Fatalf("%v n=%d: duplicate edge %v", m, n, e)
				}
				seen[e.Key()] = true
				if want := m.Dist(pts[e.U], pts[e.V]); e.W != want {
					t.Fatalf("%v n=%d: edge %v weight mismatch, want %g", m, n, e, want)
				}
				if e.U == Source {
					starSeen++
				}
			}
			if starSeen != n-1 {
				t.Fatalf("%v n=%d: source star incomplete: %d of %d edges", m, n, starSeen, n-1)
			}
		}
	}
}

// TestSparseStreamMatchesSortEdges pins the order contract: streaming
// the sparse set lazily yields exactly the SortEdges order of that set.
func TestSparseStreamMatchesSortEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randSparsePoints(rng, 120)
	ix := geom.NewIndex(pts, geom.Euclidean)

	want := NeighborEdges(ix, Source)
	SortEdges(want)

	s := NewSparseEdgeStream(ix, Source)
	if s.Len() != len(want) {
		t.Fatalf("stream length %d, want %d", s.Len(), len(want))
	}
	for k := 0; ; k++ {
		e, ok := s.Next()
		if !ok {
			if k != len(want) {
				t.Fatalf("stream ended at %d of %d edges", k, len(want))
			}
			break
		}
		if e != want[k] {
			t.Fatalf("edge %d: stream %v, eager %v", k, e, want[k])
		}
	}
}

func TestSparseMemBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randSparsePoints(rng, 30)
	ix := geom.NewIndex(pts, geom.Manhattan)
	s := NewSparseEdgeStream(ix, Source)
	if s.MemBytes() <= 0 {
		t.Fatalf("stream MemBytes = %d, want > 0", s.MemBytes())
	}
	ds := NewDisjointSet(30)
	if ds.MemBytes() <= 0 {
		t.Fatalf("disjoint set MemBytes = %d, want > 0", ds.MemBytes())
	}
}
