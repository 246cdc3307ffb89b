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
// sets coincide.

import (
	"cmp"
	"slices"

	"repro/internal/geom"
)

// EdgeSeq is the consumer-side view of an ordered edge source: Next
// yields edges in nondecreasing weight order (compareEdges order) until
// exhaustion. EdgeStream is the canonical implementation. Every
// Kruskal-style scan that stops after n−1 merges reads one —
// mst.KruskalFrom (behind mst.Kruskal, mst.Maximal, the engine's mst
// constructor and BRBC), the Elmore ladder and the BKRUS engine — so
// dense and sparse supplies are interchangeable and no such scan sorts
// the whole complete graph up front.
type EdgeSeq interface {
	// Next yields the next edge in nondecreasing weight order,
	// reporting false when the sequence is exhausted.
	Next() (Edge, bool)
}

var _ EdgeSeq = (*EdgeStream)(nil)

// NeighborEdges generates the sparse candidate edge set of an indexed
// point set: the octant nearest-neighbor graph (which contains the MST
// for both metrics — see geom.Index) united with the star of direct
// edges from root (by repository convention the source, so bounded
// constructions can always complete). Edges are canonical (U < V),
// deduplicated, and at most (Octants+1)·n of them; weights come from
// the index's metric, bit-identical to the dense matrix entries. The
// result is sorted by (U,V), not by weight — order it with SortEdges or
// stream it through NewEdgeStreamFrom.
func NeighborEdges(ix *geom.Index, root int) []Edge {
	n := ix.Len()
	if n == 0 {
		return nil
	}
	edges := make([]Edge, 0, (geom.Octants+1)*n)
	for i := 0; i < n; i++ {
		for o := 0; o < geom.Octants; o++ {
			j, d, ok := ix.Neighbor(i, o)
			if !ok {
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
	// Deduplicate without map iteration (deterministic by construction):
	// sort by the canonical endpoint pair and compact runs in place.
	// Duplicates carry bit-identical weights — every occurrence of a
	// pair computes the same metric distance — so keeping the first of a
	// run loses nothing.
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	out := edges[:0]
	for _, e := range edges {
		if len(out) > 0 && out[len(out)-1].U == e.U && out[len(out)-1].V == e.V {
			continue
		}
		out = append(out, e)
	}
	return out
}

// NewSparseEdgeStream builds a lazy sorted stream over the sparse
// neighbor edge set of ix — the drop-in sub-quadratic replacement for
// NewEdgeStream over a complete graph.
func NewSparseEdgeStream(ix *geom.Index, root int) *EdgeStream {
	return NewEdgeStreamFrom(NeighborEdges(ix, root))
}

// MemBytes estimates the heap bytes retained by the stream's packed
// edge array, re-split buffer and pending bucket ends.
func (s *EdgeStream) MemBytes() int64 {
	return int64(cap(s.edges)+cap(s.tmp))*packedEdgeBytes + int64(cap(s.ends))*8
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
