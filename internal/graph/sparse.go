package graph

// This file generalizes the edge supply from "materialize the complete
// graph" to "generate a sparse candidate set from a geometric index".
// The octant neighbor graph (geom.Index) provably contains the MST, and
// augmenting it with the source star keeps every direct source
// connection available, which is what the BKRUS completion argument
// (upper-bound-only instances always finish via the source star)
// requires. Feeding the generated set through the same lazy EdgeStream
// preserves the strict compareEdges total order, so a consumer sees the
// unique sorted sequence of the sparse set — byte-identical to sorting
// it eagerly, and identical to the dense scan wherever the two edge
// sets coincide. Every Kruskal-style scan that stops after n−1 merges
// reads an EdgeStream — mst.KruskalFrom (behind mst.Kruskal,
// mst.Maximal, the engine's mst constructor and BRBC), the Elmore
// ladder and the BKRUS engine — so dense and sparse supplies are
// interchangeable and no such scan sorts the whole complete graph up
// front.

import "repro/internal/geom"

// NeighborEdges generates the sparse candidate edge set of an indexed
// point set: the octant nearest-neighbor graph (which contains the MST
// for both metrics — see geom.Index) united with the star of direct
// edges from root (by repository convention the source, so bounded
// constructions can always complete). Edges are canonical (U < V),
// distinct, and at most (Octants+1)·n of them; weights come from the
// index's metric, bit-identical to the dense matrix entries. The order
// is generation order, not weight order — order the set with SortEdges
// or stream it through NewEdgeStreamFrom, whose strict total order
// makes the result independent of the input order.
func NeighborEdges(ix *geom.Index, root int) []Edge {
	n := ix.Len()
	if n == 0 {
		return nil
	}
	edges := make([]Edge, 0, (geom.Octants+1)*n)
	// Every pair is emitted once, without a dedupe pass: the star owns
	// the pairs at root, and a pair {i, j} that both endpoints list
	// belongs to the smaller one. A point is listed at most once by
	// another (it lies in one octant of it), so each side's scan emits
	// a pair at most once.
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		for o := 0; o < geom.Octants; o++ {
			j, d, ok := ix.Neighbor(i, o)
			if !ok || j == root || (j < i && lists(ix, j, i)) {
				continue
			}
			edges = append(edges, Edge{U: i, V: j, W: d}.Canon())
		}
	}
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		edges = append(edges, Edge{U: root, V: v, W: ix.Dist(root, v)}.Canon())
	}
	return edges
}

// lists reports whether i is one of point j's octant neighbors.
func lists(ix *geom.Index, j, i int) bool {
	for o := 0; o < geom.Octants; o++ {
		if k, _, ok := ix.Neighbor(j, o); ok && k == i {
			return true
		}
	}
	return false
}

// NewSparseEdgeStream builds a lazy sorted stream over the sparse
// neighbor edge set of ix — the drop-in sub-quadratic replacement for
// NewEdgeStream over a complete graph.
func NewSparseEdgeStream(ix *geom.Index, root int) *EdgeStream {
	return NewEdgeStreamFrom(NeighborEdges(ix, root))
}

// MemBytes estimates the heap bytes retained by the stream's packed
// edge array, re-split buffer and bucket ends.
func (s *EdgeStream) MemBytes() int64 {
	return int64(cap(s.edges)+cap(s.tmp))*packedEdgeBytes + int64(cap(s.ends)+cap(s.filtered))*8
}

// MemBytes estimates the heap bytes retained by the disjoint set's
// representative array and member lists.
func (ds *DisjointSet) MemBytes() int64 {
	b := int64(cap(ds.rep))*8 + int64(cap(ds.members))*24
	for i := range ds.members {
		b += int64(cap(ds.members[i])) * 8
	}
	return b
}
