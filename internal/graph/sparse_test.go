package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// sortDedupeNeighborEdges is the reference NeighborEdges: every octant
// edge of every point plus the star, sorted by the canonical endpoint
// pair and compacted to the first edge of each run.
func sortDedupeNeighborEdges(ix *geom.Index, root int) []Edge {
	n := ix.Len()
	var edges []Edge
	for i := 0; i < n; i++ {
		for o := 0; o < geom.Octants; o++ {
			if j, d, ok := ix.Neighbor(i, o); ok {
				edges = append(edges, Edge{U: i, V: j, W: d}.Canon())
			}
		}
	}
	for v := 0; v < n; v++ {
		if v != root {
			edges = append(edges, Edge{U: root, V: v, W: ix.Dist(root, v)}.Canon())
		}
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return slices.CompactFunc(edges, func(a, b Edge) bool { return a.U == b.U && a.V == b.V })
}

// latticePoints lays out a w×h integer lattice, row by row.
func latticePoints(w, h int) []geom.Point {
	pts := make([]geom.Point, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

// TestNeighborEdgesMatchesSortDedupe pins the one-pass dedupe against
// the sort-and-compact it replaced: the same edge set, each edge with a
// bit-identical weight, on both metrics, with the star rooted at 0 and
// mid-set, over layouts that stress ties (lattices, coincident points)
// and skewed grids (strips).
func TestNeighborEdgesMatchesSortDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	coincident := make([]geom.Point, 300)
	for i := range coincident {
		coincident[i] = geom.Point{X: float64(rng.Intn(4)), Y: float64(rng.Intn(4))}
	}
	layouts := []struct {
		name string
		pts  []geom.Point
	}{
		{"random", randSparsePoints(rng, 2000)},
		{"lattice", latticePoints(40, 40)},
		{"coincident", coincident},
		{"strip1000x10", latticePoints(1000, 10)},
		{"strip10x1000", latticePoints(10, 1000)},
	}
	for _, l := range layouts {
		for _, m := range []geom.Metric{geom.Manhattan, geom.Euclidean} {
			ix := geom.NewIndex(l.pts, m)
			for _, root := range []int{0, len(l.pts) / 2} {
				name := fmt.Sprintf("%s/%v/root=%d", l.name, m, root)
				got := NeighborEdges(ix, root)
				want := sortDedupeNeighborEdges(ix, root)
				if len(got) != len(want) {
					t.Fatalf("%s: %d edges, reference has %d", name, len(got), len(want))
				}
				slices.SortFunc(got, func(a, b Edge) int {
					return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
				})
				for k := range got {
					g, w := got[k], want[k]
					if g.U != w.U || g.V != w.V || math.Float64bits(g.W) != math.Float64bits(w.W) {
						t.Fatalf("%s: edge %d is %v, reference %v", name, k, g, w)
					}
				}
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
		e, ok, _ := s.Next(nil, nil)
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
