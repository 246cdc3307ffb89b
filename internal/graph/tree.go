package graph

import (
	"errors"
	"fmt"
	"math"
)

// Tree is an undirected tree (or forest, transiently) over nodes 0..N-1,
// represented as an edge list. Routing algorithms build and exchange edges
// on it; query methods derive adjacency on demand.
type Tree struct {
	N     int
	Edges []Edge
}

// NewTree returns an empty tree skeleton over n nodes.
func NewTree(n int) *Tree {
	return &Tree{N: n, Edges: make([]Edge, 0, max(0, n-1))}
}

// Clone returns a deep copy of t.
func (t *Tree) Clone() *Tree {
	return &Tree{N: t.N, Edges: append([]Edge(nil), t.Edges...)}
}

// Cost returns the sum of edge weights — the routing cost of the tree.
func (t *Tree) Cost() float64 {
	var c float64
	for _, e := range t.Edges {
		c += e.W
	}
	return c
}

// AddEdge appends edge (u,v) with weight w.
func (t *Tree) AddEdge(u, v int, w float64) {
	t.Edges = append(t.Edges, Edge{U: u, V: v, W: w})
}

// HasEdge reports whether the undirected edge (u,v) is present.
func (t *Tree) HasEdge(u, v int) bool {
	k := EdgeKey(u, v)
	for _, e := range t.Edges {
		if e.Key() == k {
			return true
		}
	}
	return false
}

// RemoveEdge deletes the undirected edge (u,v), reporting whether it was
// present.
func (t *Tree) RemoveEdge(u, v int) bool {
	k := EdgeKey(u, v)
	for i, e := range t.Edges {
		if e.Key() == k {
			t.Edges = append(t.Edges[:i], t.Edges[i+1:]...)
			return true
		}
	}
	return false
}

// Adj is one directed half of an undirected tree edge.
type Adj struct {
	To int
	W  float64
}

// Adjacency builds the adjacency lists of the tree, each node's
// neighbours in edge order. All lists share one backing array, sized by
// a degree count; each list's capacity ends at its own length, so an
// append to one reallocates instead of overwriting its neighbour's.
func (t *Tree) Adjacency() [][]Adj {
	off := make([]int, t.N+1)
	for _, e := range t.Edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for x := 0; x < t.N; x++ {
		off[x+1] += off[x]
	}
	all := make([]Adj, off[t.N])
	adj := make([][]Adj, t.N)
	for x := range adj {
		adj[x] = all[off[x]:off[x]:off[x+1]]
	}
	for _, e := range t.Edges {
		adj[e.U] = append(adj[e.U], Adj{To: e.V, W: e.W})
		adj[e.V] = append(adj[e.V], Adj{To: e.U, W: e.W})
	}
	return adj
}

// PathLengthsFrom returns, for every node, the total edge length of the
// unique tree path from root. Unreachable nodes (when t is a forest) get
// +Inf.
func (t *Tree) PathLengthsFrom(root int) []float64 {
	adj := t.Adjacency()
	dist := make([]float64, t.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range adj[u] {
			if math.IsInf(dist[a.To], 1) {
				dist[a.To] = dist[u] + a.W
				stack = append(stack, a.To)
			}
		}
	}
	return dist
}

// Radius returns the maximum path length from root to any node (the tree
// radius of root, in the paper's terminology). Returns +Inf on a forest.
func (t *Tree) Radius(root int) float64 {
	var r float64
	for _, d := range t.PathLengthsFrom(root) {
		if d > r {
			r = d
		}
	}
	return r
}

// FatherArray roots the tree at root and returns for every node its father
// (parent) and its depth (number of ancestors). The root's father is -1.
// Unreachable nodes get father -1 and depth -1.
func (t *Tree) FatherArray(root int) (fa, depth []int) {
	adj := t.Adjacency()
	fa = make([]int, t.N)
	depth = make([]int, t.N)
	for i := range fa {
		fa[i] = -1
		depth[i] = -1
	}
	depth[root] = 0
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range adj[u] {
			if depth[a.To] == -1 && a.To != root {
				fa[a.To] = u
				depth[a.To] = depth[u] + 1
				stack = append(stack, a.To)
			}
		}
	}
	return fa, depth
}

// Connected reports whether every node is reachable from node 0.
func (t *Tree) Connected() bool {
	if t.N == 0 {
		return true
	}
	for _, d := range t.PathLengthsFrom(0) {
		if math.IsInf(d, 1) {
			return false
		}
	}
	return true
}

// Validate checks that t is a spanning tree: exactly N-1 edges, all
// endpoints in range, no self-loops or duplicate edges, and connected.
func (t *Tree) Validate() error {
	if t.N == 0 {
		if len(t.Edges) != 0 {
			return errors.New("graph: empty tree with edges")
		}
		return nil
	}
	if len(t.Edges) != t.N-1 {
		return fmt.Errorf("graph: tree over %d nodes has %d edges, want %d", t.N, len(t.Edges), t.N-1)
	}
	seen := make(map[Key]bool, len(t.Edges))
	for _, e := range t.Edges {
		if e.U < 0 || e.U >= t.N || e.V < 0 || e.V >= t.N {
			return fmt.Errorf("graph: edge %v out of range [0,%d)", e, t.N)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: self-loop %v", e)
		}
		k := e.Key()
		if seen[k] {
			return fmt.Errorf("graph: duplicate edge %v", e)
		}
		seen[k] = true
	}
	if !t.Connected() {
		return errors.New("graph: tree is not connected")
	}
	return nil
}

// AllPairsPathLengths returns the full matrix of tree path lengths using a
// depth-first pass per root, O(N^2) total.
func (t *Tree) AllPairsPathLengths() [][]float64 {
	out := make([][]float64, t.N)
	for r := 0; r < t.N; r++ {
		out[r] = t.PathLengthsFrom(r)
	}
	return out
}

// PathNodes returns the node sequence of the unique tree path from u to v,
// inclusive of both endpoints. Returns nil if v is unreachable from u.
func (t *Tree) PathNodes(u, v int) []int {
	fa, depth := t.FatherArray(u)
	if depth[v] == -1 && u != v {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = fa[x] {
		rev = append(rev, x)
		if x == u {
			break
		}
	}
	// reverse so the path runs u -> v
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Degree returns the degree of node v.
func (t *Tree) Degree(v int) int {
	d := 0
	for _, e := range t.Edges {
		if e.U == v || e.V == v {
			d++
		}
	}
	return d
}
