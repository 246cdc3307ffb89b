package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
)

// The checker is written from the problem statement alone: it never calls
// the program's own feasibility code, so a bug shared by the constructor
// and its self-check cannot hide here.

// pt is a terminal or wire end point in the plane.
type pt struct{ X, Y float64 }

// l1 is the Manhattan distance, the wirelength metric every workload uses.
func l1(a, b pt) float64 { return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y) }

// edge is one spanning-tree edge between terminal ids (0 = source).
type edge struct {
	U, V int
	W    float64
}

// wire is one rectilinear Steiner-tree segment.
type wire struct {
	From, To pt
	Len      float64
}

// pathSlack is the relative slack allowed on the path-length bound. The
// checker sums path lengths source-outward, the program may group the
// same additions differently, so the two sums can differ in the last
// few bits; 1e-9 is far above that drift and far below any real excess.
const pathSlack = 1e-9

// radiusR is the paper's R: the direct distance from the source
// (pts[0]) to the farthest sink.
func radiusR(pts []pt) float64 {
	r := 0.0
	for _, p := range pts[1:] {
		r = math.Max(r, l1(pts[0], p))
	}
	return r
}

// dsu is a union-find over vertex ids.
type dsu []int

func newDSU(n int) dsu {
	d := make(dsu, n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (d dsu) find(x int) int {
	for d[x] != x {
		d[x] = d[d[x]]
		x = d[x]
	}
	return x
}

// union joins the sets of a and b and reports false if they were one set.
func (d dsu) union(a, b int) bool {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return false
	}
	d[ra] = rb
	return true
}

// adjEdge is one half of an undirected weighted edge.
type adjEdge struct {
	to int
	w  float64
}

// sourceDistances returns every vertex's path length from vertex 0
// along a tree given as adjacency lists.
func sourceDistances(adj [][]adjEdge) []float64 {
	dist := make([]float64, len(adj))
	seen := make([]bool, len(adj))
	seen[0] = true
	stack := []int{0}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				dist[e.to] = dist[u] + e.w
				stack = append(stack, e.to)
			}
		}
	}
	return dist
}

// checkBound verifies that every sink's path length is within (1+eps)·R.
func checkBound(dist []float64, sinks []int, eps, r float64) error {
	limit := (1 + eps) * r * (1 + pathSlack)
	for _, s := range sinks {
		if dist[s] > limit {
			return fmt.Errorf("sink %d path %.9g exceeds (1+%g)·R = %.9g", s, dist[s], eps, (1+eps)*r)
		}
	}
	return nil
}

// checkSpanning verifies a spanning tree over pts (pts[0] = source): it
// has N-1 edges, connects every terminal, each weight equals its
// endpoints' L1 distance, and every source-to-sink path is at most
// (1+eps)·R. It returns the tree's cost.
func checkSpanning(pts []pt, edges []edge, eps float64) (float64, error) {
	n := len(pts)
	if len(edges) != n-1 {
		return 0, fmt.Errorf("%d edges for %d terminals", len(edges), n)
	}
	d := newDSU(n)
	adj := make([][]adjEdge, n)
	cost := 0.0
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V {
			return 0, fmt.Errorf("edge %d-%d out of range", e.U, e.V)
		}
		if want := l1(pts[e.U], pts[e.V]); e.W != want {
			return 0, fmt.Errorf("edge %d-%d weight %v, distance %v", e.U, e.V, e.W, want)
		}
		if !d.union(e.U, e.V) {
			return 0, fmt.Errorf("edge %d-%d closes a cycle", e.U, e.V)
		}
		adj[e.U] = append(adj[e.U], adjEdge{e.V, e.W})
		adj[e.V] = append(adj[e.V], adjEdge{e.U, e.W})
		cost += e.W
	}
	// N-1 edges and no cycle: the edges connect all N terminals.
	sinks := make([]int, n-1)
	for i := range sinks {
		sinks[i] = i + 1
	}
	return cost, checkBound(sourceDistances(adj), sinks, eps, radiusR(pts))
}

// checkSteiner verifies a rectilinear Steiner tree over pts (pts[0] =
// source). A wire joins its two end points only: grid wires run between
// adjacent Hanan grid nodes, and a layered jumper may cross other wires
// without connecting to them. Every wire's length must equal its end
// points' L1 distance, the wires must form one tree over the terminals
// and the wire end points, and every source-to-sink path must be at
// most (1+eps)·R. It returns the total wirelength.
func checkSteiner(pts []pt, wires []wire, eps float64) (float64, error) {
	ids := map[pt]int{}
	vertex := func(p pt) int {
		id, ok := ids[p]
		if !ok {
			id = len(ids)
			ids[p] = id
		}
		return id
	}
	// Terminals first, so terminal i is vertex i.
	for _, p := range pts {
		vertex(p)
	}
	if len(ids) != len(pts) {
		return 0, fmt.Errorf("coincident terminals")
	}
	type seg struct {
		a, b int
		w    float64
	}
	segs := make([]seg, len(wires))
	cost := 0.0
	for i, w := range wires {
		if want := l1(w.From, w.To); w.Len != want || w.Len <= 0 {
			return 0, fmt.Errorf("wire %v-%v length %v, distance %v", w.From, w.To, w.Len, want)
		}
		segs[i] = seg{vertex(w.From), vertex(w.To), w.Len}
		cost += w.Len
	}
	if len(wires) != len(ids)-1 {
		return 0, fmt.Errorf("%d wires over %d points", len(wires), len(ids))
	}
	d := newDSU(len(ids))
	adj := make([][]adjEdge, len(ids))
	for _, s := range segs {
		if !d.union(s.a, s.b) {
			return 0, fmt.Errorf("wires close a cycle at point %d", s.b)
		}
		adj[s.a] = append(adj[s.a], adjEdge{s.b, s.w})
		adj[s.b] = append(adj[s.b], adjEdge{s.a, s.w})
	}
	// V-1 wires and no cycle: one tree over every point.
	sinks := make([]int, len(pts)-1)
	for i := range sinks {
		sinks[i] = i + 1
	}
	return cost, checkBound(sourceDistances(adj), sinks, eps, radiusR(pts))
}

// digest accumulates a SHA-256 over every returned tree, in order, so
// two runs of one seed can show byte-identical output.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d *digest) spanning(eps float64, edges []edge) {
	d.f64(eps)
	d.f64(float64(len(edges)))
	for _, e := range edges {
		d.f64(float64(e.U))
		d.f64(float64(e.V))
		d.f64(e.W)
	}
}

func (d *digest) steiner(eps float64, wires []wire) {
	d.f64(eps)
	d.f64(float64(-len(wires)))
	for _, w := range wires {
		d.f64(w.From.X)
		d.f64(w.From.Y)
		d.f64(w.To.X)
		d.f64(w.To.Y)
		d.f64(w.Len)
	}
}

// add folds another digest's sum in.
func (d *digest) add(sum string) { d.h.Write([]byte(sum)) }

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:12]) }
