// Package graph provides the graph substrate shared by all tree
// constructions: weighted edges over integer node ids, the complete
// geometric graph, a disjoint-set structure with enumerable members (the
// set representation the paper's BKRUS requires), and rooted-tree queries
// (path lengths, radius, father arrays).
//
// Node ids are dense integers 0..n-1. By convention throughout this
// repository node 0 is the source.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Source is the conventional node id of the driver/source terminal.
const Source = 0

// Edge is an undirected weighted edge between nodes U and V.
type Edge struct {
	U, V int
	W    float64
}

// Canon returns the edge with endpoints ordered U <= V, so that edges can
// be compared and used as map keys regardless of construction order.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Key is a comparable identifier for an undirected edge.
type Key struct{ U, V int }

// EdgeKey returns the canonical key of the undirected pair (u,v).
func EdgeKey(u, v int) Key {
	if u > v {
		u, v = v, u
	}
	return Key{u, v}
}

// Key returns the canonical key of e.
func (e Edge) Key() Key { return EdgeKey(e.U, e.V) }

// String renders the edge as "(u-v:w)".
func (e Edge) String() string { return fmt.Sprintf("(%d-%d:%g)", e.U, e.V, e.W) }

// Weights abstracts a pairwise weight oracle, typically a geom.DistMatrix.
type Weights interface {
	// At returns the weight between nodes i and j.
	At(i, j int) float64
	// Len returns the number of nodes.
	Len() int
}

// CompleteEdges enumerates all edges of the complete graph over w's nodes.
func CompleteEdges(w Weights) []Edge {
	n := w.Len()
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: i, V: j, W: w.At(i, j)})
		}
	}
	return edges
}

// compareEdges is the canonical edge order shared by SortEdges and the
// lazy EdgeStream (whose packed entries compare the same way, see
// comparePacked): nondecreasing weight with a deterministic (U,V)
// tie-break. Because no two edges of a simple graph share the same
// (U,V) pair, this is a strict *total* order — the sorted sequence of
// any edge set is unique, which is what lets the lazy and parallel
// kernels promise byte-identical output.
//
// Weights tie only when exactly equal (+0 and −0 included): a
// comparator must stay an exact strict weak order, and epsilon ties
// would break sort transitivity.
func compareEdges(a, b Edge) int {
	switch {
	case a.W < b.W:
		return -1
	case a.W > b.W:
		return 1
	}
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// SortEdges sorts edges in nondecreasing weight order with a deterministic
// (U,V) tie-break, so runs are reproducible across platforms.
func SortEdges(edges []Edge) {
	slices.SortFunc(edges, compareEdges)
}

// DisjointSet is a union-find structure that, unlike the classical
// path-compressed forest, keeps an explicit member list per set. BKRUS
// needs to enumerate the members of a partial tree during feasibility
// tests and merges, so Find is O(1) via a representative array and Union
// is O(min set size) by relabelling the smaller set (the same structure
// the paper describes).
type DisjointSet struct {
	rep     []int   // rep[x] = representative (set name) of x
	members [][]int // members[r] = nodes of the set named r (valid only when rep[r]==r)
	sets    int
}

// NewDisjointSet creates n singleton sets named 0..n-1.
func NewDisjointSet(n int) *DisjointSet {
	ds := &DisjointSet{
		rep:     make([]int, n),
		members: make([][]int, n),
		sets:    n,
	}
	for i := 0; i < n; i++ {
		ds.rep[i] = i
		ds.members[i] = []int{i}
	}
	return ds
}

// Reset returns the structure to n singleton sets without releasing the
// member-list backing arrays, so pooled callers (sweep runners reusing
// one scratch across constructions) avoid re-allocating n slices per run.
func (ds *DisjointSet) Reset() {
	for i := range ds.rep {
		ds.rep[i] = i
		ds.members[i] = append(ds.members[i][:0], i)
	}
	ds.sets = len(ds.rep)
}

// Len returns the number of elements.
func (ds *DisjointSet) Len() int { return len(ds.rep) }

// Sets returns the current number of disjoint sets.
func (ds *DisjointSet) Sets() int { return ds.sets }

// Find returns the representative of x's set in O(1).
func (ds *DisjointSet) Find(x int) int { return ds.rep[x] }

// Same reports whether x and y are in the same set.
func (ds *DisjointSet) Same(x, y int) bool { return ds.rep[x] == ds.rep[y] }

// Members returns the nodes in x's set. The returned slice is owned by the
// structure and must not be modified; it is valid until the next Union.
func (ds *DisjointSet) Members(x int) []int { return ds.members[ds.rep[x]] }

// Size returns the size of x's set.
func (ds *DisjointSet) Size(x int) int { return len(ds.members[ds.rep[x]]) }

// Union merges the sets of x and y, relabelling the smaller set. It
// reports whether a merge happened (false if already in the same set).
func (ds *DisjointSet) Union(x, y int) bool {
	rx, ry := ds.rep[x], ds.rep[y]
	if rx == ry {
		return false
	}
	if len(ds.members[rx]) < len(ds.members[ry]) {
		rx, ry = ry, rx
	}
	for _, v := range ds.members[ry] {
		ds.rep[v] = rx
	}
	ds.members[rx] = append(ds.members[rx], ds.members[ry]...)
	ds.members[ry] = nil
	ds.sets--
	return true
}
