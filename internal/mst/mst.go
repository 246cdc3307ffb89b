// Package mst implements the classical tree constructions the paper uses
// as baselines and endpoints: Kruskal and Prim minimal spanning trees, the
// Dijkstra shortest path tree (SPT), the maximal spanning tree (the
// high-cost endpoint of the paper's Figure 11 cost chart), and the
// constrained Kruskal construction needed by the Gabow-style exact
// spanning-tree enumeration. KruskalFrom is the one Kruskal scan; every
// Kruskal here feeds it a lazy graph.EdgeStream, never a full sort.
package mst

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/graph"
)

// ErrDisconnected is wrapped by KruskalFrom's error for a short sequence.
var ErrDisconnected = errors.New("mst: edge sequence does not span the nodes")

// cancelStride is how many stream entries KruskalFrom passes between
// context polls; each is at most one union-find step.
const cancelStride = 256

// Kruskal returns a minimal spanning tree of the complete graph over w.
func Kruskal(w graph.Weights) *graph.Tree {
	// Background never cancels, and the complete graph always connects.
	t, _ := KruskalFrom(context.Background(), w.Len(), graph.NewEdgeStream(w))
	return t
}

// KruskalFrom runs Kruskal over a lazy edge stream and stops after n−1
// merges, so the stream sorts only the prefix the scan reads. The
// stream filters on the scan's disjoint set: it never yields an edge
// whose endpoints are already joined, so every edge it yields merges.
// It returns ctx.Err() from a poll every cancelStride stream entries,
// and wraps ErrDisconnected when the stream runs out first. Fed the
// sparse octant neighbor stream (graph.NewSparseEdgeStream) it
// reproduces Kruskal(w) exactly — the neighbor graph contains every
// dense-selected MST edge, and a greedy scan over a superset of its own
// selection makes identical decisions.
func KruskalFrom(ctx context.Context, n int, s *graph.EdgeStream) (*graph.Tree, error) {
	t := graph.NewTree(n)
	if n <= 1 {
		return t, nil
	}
	chk := cancel.New(ctx, cancelStride)
	ds := graph.NewDisjointSet(n)
	for len(t.Edges) < n-1 {
		e, ok, err := s.Next(ds, &chk)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: %d of %d tree edges", ErrDisconnected, len(t.Edges), n-1)
		}
		ds.Union(e.U, e.V)
		t.Edges = append(t.Edges, e)
	}
	return t, nil
}

// Prim returns a minimal spanning tree grown from root over the complete
// graph of w, using the O(V^2) dense-graph variant.
func Prim(w graph.Weights, root int) *graph.Tree {
	n := w.Len()
	t := graph.NewTree(n)
	if n <= 1 {
		return t
	}
	inTree := make([]bool, n)
	best := make([]float64, n) // cheapest connection weight to the tree
	bestFrom := make([]int, n) // tree endpoint achieving best
	for i := range best {
		best[i] = math.Inf(1)
		bestFrom[i] = -1
	}
	inTree[root] = true
	for j := 0; j < n; j++ {
		if j != root {
			best[j] = w.At(root, j)
			bestFrom[j] = root
		}
	}
	for k := 1; k < n; k++ {
		v := -1
		for j := 0; j < n; j++ {
			if !inTree[j] && (v == -1 || best[j] < best[v]) {
				v = j
			}
		}
		inTree[v] = true
		t.AddEdge(bestFrom[v], v, best[v])
		for j := 0; j < n; j++ {
			if !inTree[j] && w.At(v, j) < best[j] {
				best[j] = w.At(v, j)
				bestFrom[j] = v
			}
		}
	}
	return t
}

// Maximal returns a maximum-weight spanning tree of the complete graph
// over w. The paper's Figure 11 uses it as the most expensive spanning
// topology for calibration. It is KruskalFrom over the lazy stream of
// negated weights — descending weight, ties in ascending (U,V) order —
// with the signs flipped back on the tree's edges.
func Maximal(ctx context.Context, w graph.Weights) (*graph.Tree, error) {
	t, err := KruskalFrom(ctx, w.Len(), graph.NewEdgeStream(negated{w}))
	if err != nil {
		return nil, err
	}
	for i := range t.Edges {
		t.Edges[i].W = -t.Edges[i].W
	}
	return t, nil
}

// negated is w with every weight's sign flipped.
type negated struct{ w graph.Weights }

func (n negated) At(i, j int) float64 { return -n.w.At(i, j) }
func (n negated) Len() int            { return n.w.Len() }

// sptItem is a priority-queue entry for Dijkstra.
type sptItem struct {
	node int
	dist float64
}

// newSPTHeap returns a Dijkstra queue holding only root, ordered by
// distance alone.
func newSPTHeap(root int) *graph.Heap[sptItem] {
	h := graph.NewHeap(func(a, b sptItem) bool { return a.dist < b.dist })
	h.Push(sptItem{node: root, dist: 0})
	return h
}

// SPT returns the shortest path tree from root over the complete graph of
// w (Dijkstra). On a metric point set the result is the star of direct
// source-sink connections, the minimum-radius / maximum-cost end of the
// paper's trade-off.
func SPT(w graph.Weights, root int) *graph.Tree {
	n := w.Len()
	t := graph.NewTree(n)
	if n <= 1 {
		return t
	}
	dist := make([]float64, n)
	from := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		from[i] = -1
	}
	dist[root] = 0
	h := newSPTHeap(root)
	for h.Len() > 0 {
		it := h.Pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if from[u] != -1 {
			t.AddEdge(from[u], u, w.At(from[u], u))
		}
		for v := 0; v < n; v++ {
			if !done[v] && v != u {
				if d := dist[u] + w.At(u, v); d < dist[v] {
					dist[v] = d
					from[v] = u
					h.Push(sptItem{node: v, dist: d})
				}
			}
		}
	}
	return t
}

// SPTEdges returns the shortest path tree from root over an explicit edge
// list (not necessarily complete). Used by the BRBC baseline, which runs
// Dijkstra over the MST augmented with shortcut edges. Nodes unreachable
// from root are left unconnected.
func SPTEdges(n int, edges []graph.Edge, root int) *graph.Tree {
	adj := make([][]graph.Adj, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], graph.Adj{To: e.V, W: e.W})
		adj[e.V] = append(adj[e.V], graph.Adj{To: e.U, W: e.W})
	}
	t := graph.NewTree(n)
	dist := make([]float64, n)
	from := make([]int, n)
	fromW := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		from[i] = -1
	}
	dist[root] = 0
	h := newSPTHeap(root)
	for h.Len() > 0 {
		it := h.Pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if from[u] != -1 {
			t.AddEdge(from[u], u, fromW[u])
		}
		for _, a := range adj[u] {
			if !done[a.To] {
				if d := dist[u] + a.W; d < dist[a.To] {
					dist[a.To] = d
					from[a.To] = u
					fromW[a.To] = a.W
					h.Push(sptItem{node: a.To, dist: d})
				}
			}
		}
	}
	return t
}

// ConstrainedKruskal computes a minimal spanning tree over n nodes that
// includes every edge in include and avoids every edge whose key is in
// exclude. sorted must be the full candidate edge list in nondecreasing
// weight order. It reports false when no such spanning tree exists (the
// inclusions form a cycle, or the remaining edges cannot connect the
// graph).
func ConstrainedKruskal(n int, sorted []graph.Edge, include []graph.Edge, exclude map[graph.Key]bool) (*graph.Tree, bool) {
	t := graph.NewTree(n)
	if n <= 1 {
		return t, len(include) == 0
	}
	ds := graph.NewDisjointSet(n)
	for _, e := range include {
		if !ds.Union(e.U, e.V) {
			return nil, false // inclusion set contains a cycle
		}
		t.Edges = append(t.Edges, e)
	}
	if len(t.Edges) > n-1 {
		return nil, false
	}
	included := make(map[graph.Key]bool, len(include))
	for _, e := range include {
		included[e.Key()] = true
	}
	for _, e := range sorted {
		if len(t.Edges) == n-1 {
			break
		}
		k := e.Key()
		if exclude[k] || included[k] {
			continue
		}
		if ds.Union(e.U, e.V) {
			t.Edges = append(t.Edges, e)
		}
	}
	if len(t.Edges) != n-1 {
		return nil, false
	}
	return t, true
}
