package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestEdgeCanonAndKey(t *testing.T) {
	e := Edge{U: 5, V: 2, W: 1.5}
	c := e.Canon()
	if c.U != 2 || c.V != 5 || c.W != 1.5 {
		t.Errorf("Canon = %v", c)
	}
	if e.Key() != (Key{2, 5}) {
		t.Errorf("Key = %v", e.Key())
	}
	if EdgeKey(2, 5) != EdgeKey(5, 2) {
		t.Error("EdgeKey must be order-insensitive")
	}
	if e.String() != "(5-2:1.5)" {
		t.Errorf("String = %q", e.String())
	}
}

func TestCompleteEdges(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 2}}
	dm := geom.NewDistMatrix(pts, geom.Manhattan)
	edges := CompleteEdges(dm)
	if len(edges) != 3 {
		t.Fatalf("len = %d, want 3", len(edges))
	}
	want := map[Key]float64{{0, 1}: 1, {0, 2}: 2, {1, 2}: 3}
	for _, e := range edges {
		if w, ok := want[e.Key()]; !ok || w != e.W {
			t.Errorf("unexpected edge %v", e)
		}
	}
}

func TestSortEdgesDeterministic(t *testing.T) {
	edges := []Edge{{2, 3, 5}, {0, 1, 5}, {1, 2, 1}, {0, 3, 5}}
	SortEdges(edges)
	if edges[0].W != 1 {
		t.Errorf("first edge = %v", edges[0])
	}
	// ties broken by (U,V)
	if edges[1] != (Edge{0, 1, 5}) || edges[2] != (Edge{0, 3, 5}) || edges[3] != (Edge{2, 3, 5}) {
		t.Errorf("tie-break order wrong: %v", edges)
	}
	if !sort.SliceIsSorted(edges, func(i, j int) bool { return edges[i].W < edges[j].W }) {
		t.Error("not sorted by weight")
	}
}

func TestDisjointSetBasics(t *testing.T) {
	ds := NewDisjointSet(5)
	if ds.Len() != 5 || ds.Sets() != 5 {
		t.Fatalf("Len/Sets = %d/%d", ds.Len(), ds.Sets())
	}
	for i := 0; i < 5; i++ {
		if ds.Find(i) != i || ds.Size(i) != 1 {
			t.Errorf("singleton %d broken", i)
		}
	}
	if !ds.Union(0, 1) {
		t.Error("Union(0,1) should merge")
	}
	if ds.Union(0, 1) {
		t.Error("second Union(0,1) should be a no-op")
	}
	if !ds.Same(0, 1) || ds.Same(0, 2) {
		t.Error("Same misreports")
	}
	if ds.Sets() != 4 {
		t.Errorf("Sets = %d, want 4", ds.Sets())
	}
	ds.Union(2, 3)
	ds.Union(0, 2)
	if ds.Size(3) != 4 {
		t.Errorf("Size = %d, want 4", ds.Size(3))
	}
	m := ds.Members(1)
	if len(m) != 4 {
		t.Fatalf("Members len = %d, want 4", len(m))
	}
	got := map[int]bool{}
	for _, v := range m {
		got[v] = true
	}
	for _, v := range []int{0, 1, 2, 3} {
		if !got[v] {
			t.Errorf("member %d missing", v)
		}
	}
	if got[4] {
		t.Error("node 4 should not be a member")
	}
}

// Property: after an arbitrary union sequence, Same(x,y) agrees with
// reachability in the implied union graph, member lists partition the
// nodes, and Sets() counts the partition classes.
func TestDisjointSetPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, ops []uint16) bool {
		n := int(nRaw%20) + 2
		ds := NewDisjointSet(n)
		// reference: naive connectivity matrix
		conn := make([][]bool, n)
		for i := range conn {
			conn[i] = make([]bool, n)
			conn[i][i] = true
		}
		link := func(a, b int) {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if conn[i][a] && conn[b][j] {
						conn[i][j] = true
						conn[j][i] = true
					}
				}
			}
		}
		for _, op := range ops {
			a := int(op) % n
			b := int(op>>8) % n
			ds.Union(a, b)
			link(a, b)
		}
		classes := map[int]bool{}
		seen := make([]int, n)
		for i := 0; i < n; i++ {
			classes[ds.Find(i)] = true
			for _, m := range ds.Members(i) {
				if ds.Find(m) != ds.Find(i) {
					return false
				}
			}
			seen[ds.Find(i)]++
			for j := 0; j < n; j++ {
				if ds.Same(i, j) != conn[i][j] {
					return false
				}
			}
		}
		if len(classes) != ds.Sets() {
			return false
		}
		// member lists partition the universe
		total := 0
		for c := range classes {
			total += len(ds.Members(c))
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mkPathTree() *Tree {
	// 0 -1- 1 -2- 2 -3- 3, plus branch 1 -5- 4
	tr := NewTree(5)
	tr.AddEdge(0, 1, 1)
	tr.AddEdge(1, 2, 2)
	tr.AddEdge(2, 3, 3)
	tr.AddEdge(1, 4, 5)
	return tr
}

func TestTreeCostAndEdges(t *testing.T) {
	tr := mkPathTree()
	if tr.Cost() != 11 {
		t.Errorf("Cost = %v, want 11", tr.Cost())
	}
	if !tr.HasEdge(2, 1) || tr.HasEdge(0, 3) {
		t.Error("HasEdge misreports")
	}
	if !tr.RemoveEdge(3, 2) {
		t.Error("RemoveEdge failed")
	}
	if tr.RemoveEdge(3, 2) {
		t.Error("double remove succeeded")
	}
	if tr.Cost() != 8 {
		t.Errorf("Cost after removal = %v", tr.Cost())
	}
}

func TestTreePathLengths(t *testing.T) {
	tr := mkPathTree()
	d := tr.PathLengthsFrom(0)
	want := []float64{0, 1, 3, 6, 6}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("d[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if tr.Radius(0) != 6 {
		t.Errorf("Radius = %v", tr.Radius(0))
	}
	if tr.Radius(3) != 10 {
		t.Errorf("Radius(3) = %v", tr.Radius(3))
	}
}

func TestTreeFatherArray(t *testing.T) {
	tr := mkPathTree()
	fa, depth := tr.FatherArray(0)
	if fa[0] != -1 || depth[0] != 0 {
		t.Errorf("root fa/depth = %d/%d", fa[0], depth[0])
	}
	if fa[1] != 0 || fa[2] != 1 || fa[3] != 2 || fa[4] != 1 {
		t.Errorf("fa = %v", fa)
	}
	if depth[3] != 3 || depth[4] != 2 {
		t.Errorf("depth = %v", depth)
	}
}

// TestTreeAdjacencyOrder pins Adjacency's contract on random trees and
// forests: each node's list is its incident edges in edge order, the
// order per-node appends produce, and each list's capacity ends at its
// length, so appending to one list leaves its neighbour intact.
func TestTreeAdjacencyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		tr := NewTree(n)
		for v := 1; v < n; v++ {
			if rng.Intn(8) > 0 { // skip some edges: a forest
				tr.AddEdge(rng.Intn(v), v, float64(rng.Intn(9)))
			}
		}
		want := make([][]Adj, n)
		for _, e := range tr.Edges {
			want[e.U] = append(want[e.U], Adj{To: e.V, W: e.W})
			want[e.V] = append(want[e.V], Adj{To: e.U, W: e.W})
		}
		adj := tr.Adjacency()
		if len(adj) != n {
			t.Fatalf("trial %d: %d lists, want %d", trial, len(adj), n)
		}
		for x := range adj {
			if len(adj[x]) != len(want[x]) || cap(adj[x]) != len(adj[x]) {
				t.Fatalf("trial %d node %d: len/cap %d/%d, want %d/%d",
					trial, x, len(adj[x]), cap(adj[x]), len(want[x]), len(want[x]))
			}
			for k := range want[x] {
				if adj[x][k] != want[x][k] {
					t.Fatalf("trial %d node %d: adj = %v, want %v", trial, x, adj[x], want[x])
				}
			}
		}
		for x := range adj {
			adj[x] = append(adj[x], Adj{To: -1})
		}
		for x := range adj {
			for k, a := range want[x] {
				if adj[x][k] != a {
					t.Fatalf("trial %d node %d: append spilled: %v", trial, x, adj[x])
				}
			}
		}
	}
}

func TestTreeValidate(t *testing.T) {
	tr := mkPathTree()
	if err := tr.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	bad := tr.Clone()
	bad.RemoveEdge(0, 1)
	bad.AddEdge(2, 3, 1) // duplicate, disconnects 0
	if err := bad.Validate(); err == nil {
		t.Error("duplicate-edge tree accepted")
	}
	forest := NewTree(3)
	forest.AddEdge(0, 1, 1)
	if err := forest.Validate(); err == nil {
		t.Error("forest accepted as spanning tree")
	}
	loop := NewTree(2)
	loop.AddEdge(1, 1, 1)
	if err := loop.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
	outOfRange := NewTree(2)
	outOfRange.AddEdge(0, 5, 1)
	if err := outOfRange.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	empty := NewTree(0)
	if err := empty.Validate(); err != nil {
		t.Errorf("empty tree rejected: %v", err)
	}
}

func TestTreePathNodes(t *testing.T) {
	tr := mkPathTree()
	p := tr.PathNodes(4, 3)
	want := []int{4, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("PathNodes = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PathNodes = %v, want %v", p, want)
		}
	}
	if got := tr.PathNodes(2, 2); len(got) != 1 || got[0] != 2 {
		t.Errorf("trivial path = %v", got)
	}
	forest := NewTree(3)
	forest.AddEdge(0, 1, 1)
	if forest.PathNodes(0, 2) != nil {
		t.Error("unreachable path should be nil")
	}
}

func TestTreeDegree(t *testing.T) {
	tr := mkPathTree()
	if tr.Degree(1) != 3 || tr.Degree(0) != 1 || tr.Degree(3) != 1 {
		t.Errorf("degrees: %d %d %d", tr.Degree(1), tr.Degree(0), tr.Degree(3))
	}
}

func TestAllPairsPathLengthsSymmetric(t *testing.T) {
	tr := mkPathTree()
	p := tr.AllPairsPathLengths()
	for i := 0; i < tr.N; i++ {
		if p[i][i] != 0 {
			t.Errorf("diagonal p[%d][%d] = %v", i, i, p[i][i])
		}
		for j := 0; j < tr.N; j++ {
			if p[i][j] != p[j][i] {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
	if p[0][3] != 6 || p[4][3] != 10 {
		t.Errorf("path lengths wrong: %v", p)
	}
}

// Property: on a random spanning tree, path length from the root obeys the
// father-array recurrence d[v] = d[fa[v]] + w(v, fa[v]).
func TestPathLengthFatherConsistencyProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%30) + 2
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree(n)
		for v := 1; v < n; v++ {
			u := rng.Intn(v)
			tr.AddEdge(u, v, 1+rng.Float64()*9)
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		d := tr.PathLengthsFrom(0)
		fa, _ := tr.FatherArray(0)
		for v := 1; v < n; v++ {
			var w float64
			found := false
			for _, e := range tr.Edges {
				if e.Key() == EdgeKey(v, fa[v]) {
					w = e.W
					found = true
					break
				}
			}
			if !found {
				return false
			}
			if diff := d[v] - (d[fa[v]] + w); diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the edge weights along PathNodes(u,v) sum to the tree path
// length reported by PathLengthsFrom.
func TestPathNodesLengthConsistencyProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := int(szRaw%20) + 2
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree(n)
		for v := 1; v < n; v++ {
			tr.AddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
		}
		weight := map[Key]float64{}
		for _, e := range tr.Edges {
			weight[e.Key()] = e.W
		}
		u := rng.Intn(n)
		d := tr.PathLengthsFrom(u)
		for v := 0; v < n; v++ {
			path := tr.PathNodes(u, v)
			var sum float64
			for i := 1; i < len(path); i++ {
				sum += weight[EdgeKey(path[i-1], path[i])]
			}
			if diff := sum - d[v]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
