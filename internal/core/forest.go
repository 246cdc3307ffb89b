package core

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// This file holds Forest, the partial forest both bounded Kruskal
// constructions grow: BKRUS over the instance's nodes and BKST over the
// Hanan grid's. The paper's Merge stores P[x][y] — the in-forest path
// length between every same-tree pair of a source-free tree — which is
// O(n²) bytes and makes every merge of two source-free trees write a
// cross-product of entries. Forest keeps the forest itself instead:
//
//   - half/head/tail: the partial forest's adjacency (tree edges
//     accepted so far) as one arena of half-edges, two per accepted
//     edge, each node's half-edges chained in acceptance order from
//     head[x] to tail[x], O(n) total; the arena grows by append and
//     keeps its capacity across Resets, since a BKST forest over the
//     Hanan grid links far fewer than its 2(n−1) half-edges;
//   - distS[x]: the in-tree path length from the source to x, defined
//     only once x joins the source tree — tree paths never change after
//     a merge, so one assignment per node suffices;
//   - r[x]: x's radius within its tree, kept for source-free trees only
//     ((3-a) reads the source-free side's radius, never the source
//     tree's), and diam[rep]: the diameter of the source-free tree
//     named rep;
//   - live[rep]: the members of the source-free set named rep that can
//     still witness condition (3-b) (see mergeLive);
//   - up/hops/depth/jump: each source-free tree rooted, with every
//     node's parent, depth in edges, weighted depth (its path length to
//     the root) and one skew-binary jump pointer, so path(x,y) is two
//     depth differences below their nearest common ancestor, found in
//     O(log n) (lca);
//   - dist/via/seq/stack: one complete DFS from a fill root, giving
//     path(root, x) and x's DFS parent for every member x of the root's
//     tree, and the members in the order reached.
//
// Every P read the paper's tests perform is a row of an edge endpoint
// over the members of its own tree. The witness scan reads live
// members, passes over those too far from the endpoint to witness
// (tooFar), and usually stops after a few, so it reads each path from
// the rooted forest. Merge reads whole rows, and only where they can
// change a radius: every node's farthest node in a tree is an endpoint
// of any diameter of the tree (weights are nonnegative), so a side whose
// diameter is still a diameter of the merged tree keeps every radius.
// mergeFree fills only the side(s) whose diameter grew, then re-roots
// the smaller tree under the larger from a fill of its own. A node's
// tree at least doubles each time it is on the smaller side, so the
// re-rootings cost O(n log n) over a build, and no state is O(n²).
//
// Floating point: every fill distance is its DFS parent's plus the edge
// weight, so any traversal order yields the same bits, and the merge
// sums are grouped one way — path(x,u) + w, then + the far-side term.
// A weighted depth is (depth(parent of the re-rooted tree's root) + w)
// + the fill distance, and the witness scan's path read,
// (depth[x] − depth[l]) + (depth[y] − depth[l]), carries an absolute
// error of order ulp(depth) rather than a relative one; tooFar's prune
// takes that into account (pathLow). The two constructions differ only
// in the edges they offer, the metric that prunes the scan and the
// source distances, so wherever they offer the same edges they compute
// the same bits. relTol is there for trees that sit exactly on the
// bound (bkrus.go), not to absorb a second implementation's rounding.

// Pairs is the pair metric a Forest prunes its witness scan with:
// At(u, x) must not exceed the length of any forest path between u and
// x. The straight-line distance qualifies for BKRUS, whose tree edges
// are straight lines, and L1 qualifies on the Hanan grid, whose tree
// paths are rectilinear.
type Pairs interface {
	At(i, j int) float64
}

// Forest is the partial forest of one bounded Kruskal construction and
// the bookkeeping conditions (3-a) and (3-b) read. It is parameterised
// by the source id, the source distances dist(S,·), the pair metric and
// the bound window; its methods link two trees across an edge and test
// whether a link is feasible. A zero Forest is ready for Reset and grows
// to the largest node count it has served.
type Forest struct {
	src    int
	dS     []float64 // dist(S,x), the metric distance the witness test reads
	pair   Pairs
	b      Bounds
	ds     *graph.DisjointSet
	half   []halfEdge // the adjacency arena, two entries per linked edge
	head   []int32    // head[x] = x's first half-edge, -1 while x has none
	tail   []int32    // tail[x] = x's last half-edge, valid once head[x] >= 0
	distS  []float64
	r      []float64
	diam   []float64
	live   [][]int32
	scans  int64 // live members the (3-b) scans have read since Reset
	visits int64 // nodes the fills have reached since Reset

	// The rooted forest: parent (a root is its own), depth in edges,
	// weighted depth and skew-binary jump pointer per node.
	up    []int32
	hops  []int32
	depth []float64
	jump  []int32

	// The complete fill: distances from the fill root, DFS parents, the
	// nodes in the order reached (each after its parent), and the stack.
	dist  []float64
	via   []int32
	seq   []int32
	stack []int32
}

// halfEdge is one direction of an accepted edge: the edge's weight, the
// node it leads to, and the next half-edge leaving the same node (-1
// ends the chain).
type halfEdge struct {
	w        float64
	to, next int32
}

// halfEdgeBytes is the size of one halfEdge, for MemBytes.
const halfEdgeBytes = 16

// Reset empties the forest to n singleton trees with the source at src,
// source distances dS(x), pair metric pair and bound window b, reusing
// the buffers of earlier constructions.
func (f *Forest) Reset(n, src int, dS func(x int) float64, pair Pairs, b Bounds) {
	guardVertexIDSpace(n)
	f.src, f.pair, f.b, f.scans, f.visits = src, pair, b, 0, 0
	f.half = f.half[:0]
	if cap(f.distS) < n {
		f.dS = make([]float64, n)
		f.distS = make([]float64, n)
		f.r = make([]float64, n)
		f.diam = make([]float64, n)
		f.depth = make([]float64, n)
		f.dist = make([]float64, n)
		f.head = make([]int32, n)
		f.tail = make([]int32, n)
		f.up = make([]int32, n)
		f.hops = make([]int32, n)
		f.jump = make([]int32, n)
		f.via = make([]int32, n)
	} else {
		f.dS, f.distS, f.r, f.diam, f.depth, f.dist = f.dS[:n], f.distS[:n], f.r[:n], f.diam[:n], f.depth[:n], f.dist[:n]
		f.head, f.tail, f.up, f.hops, f.jump, f.via = f.head[:n], f.tail[:n], f.up[:n], f.hops[:n], f.jump[:n], f.via[:n]
		clear(f.r)
		clear(f.diam)
		clear(f.depth)
		clear(f.hops)
	}
	for x := range f.head {
		f.head[x] = -1
		f.up[x] = id32(x)
		f.jump[x] = f.up[x]
	}
	for x := range f.distS {
		f.dS[x] = dS(x)
		f.distS[x] = math.Inf(1)
	}
	f.distS[src] = 0
	if cap(f.live) < n {
		f.live = make([][]int32, n)
	} else {
		f.live = f.live[:n]
	}
	for x := range f.live {
		f.live[x] = f.live[x][:0]
		if x != src && f.alive(x) {
			f.live[x] = append(f.live[x], id32(x))
		}
	}
	if f.ds == nil || f.ds.Len() != n {
		f.ds = graph.NewDisjointSet(n)
	} else {
		f.ds.Reset()
	}
}

// MemBytes estimates the heap bytes the forest's buffers retain.
func (f *Forest) MemBytes() int64 {
	b := int64(cap(f.dS)+cap(f.distS)+cap(f.r)+cap(f.diam)+cap(f.depth)+cap(f.dist)) * 8
	b += int64(cap(f.head)+cap(f.tail)+cap(f.up)+cap(f.hops)+cap(f.jump)+cap(f.via)) * 4
	b += int64(cap(f.seq)+cap(f.stack)) * 4
	b += int64(cap(f.half)) * halfEdgeBytes
	b += int64(cap(f.live)) * 24
	for _, l := range f.live[:cap(f.live)] {
		b += int64(cap(l)) * 4
	}
	if f.ds != nil {
		b += f.ds.MemBytes()
	}
	return b
}

// Find returns the name of x's tree.
func (f *Forest) Find(x int) int { return f.ds.Find(x) }

// Same reports whether x and y lie in one tree.
func (f *Forest) Same(x, y int) bool { return f.ds.Same(x, y) }

// Members returns the nodes of x's tree; the slice is owned by the
// forest and valid until the next Link.
func (f *Forest) Members(x int) []int { return f.ds.Members(x) }

// InSource reports whether x lies in the source tree.
func (f *Forest) InSource(x int) bool { return f.ds.Same(f.src, x) }

// DistS returns the in-tree path length from the source to x, a member
// of the source tree.
func (f *Forest) DistS(x int) float64 { return f.distS[x] }

// Radius returns x's radius within its tree, x a member of a
// source-free tree.
func (f *Forest) Radius(x int) float64 { return f.r[x] }

// Live returns the members of x's source-free tree that can still
// witness condition (3-b), in scan order; the slice is owned by the
// forest and valid until the next Link.
func (f *Forest) Live(x int) []int32 { return f.live[f.ds.Find(x)] }

// Feasible applies condition (3) to linking the trees of u and v, which
// must differ, across an edge of weight w. When one side holds the
// source it is (3-a)'s upper test, distS[s] + w + r[t] ≤ Upper for s
// the source-side endpoint and t the other, and Feasible also returns
// base = distS[s] + w, the source path the link gives t, and att = t,
// so the caller can apply its own lower-bound rule to t's tree.
// Otherwise it is the (3-b) witness scan, and att = -1.
func (f *Forest) Feasible(u, v int, w float64) (ok bool, base float64, att int) {
	switch {
	case f.InSource(u):
		base = f.distS[u] + w
		return f.b.WithinUpper(base + f.r[v]), base, v
	case f.InSource(v):
		base = f.distS[v] + w
		return f.b.WithinUpper(base + f.r[u]), base, u
	}
	return f.scanSide(u, v, w) || f.scanSide(v, u, w), 0, -1
}

// alive reports whether x can still witness condition (3-b): its base
// dist(S,x) + r[x] passes Upper and dist(S,x) passes Lower. A merged
// tree's radius at x is never below r[x], and r[x] only grows, so a
// member that fails this never witnesses again.
func (f *Forest) alive(x int) bool {
	return f.b.WithinUpper(f.dS[x]+f.r[x]) && f.b.WithinLower(f.dS[x])
}

// scanSide scans the live members of u's tree for a witness of the
// tentative merge with v's tree across an edge of weight w: a member x
// with dist(S,x) + radius_M(x) ≤ Upper, where radius_M(x) is x's radius
// in the would-be merged tree, max(r[x], path(x,u) + w + r[v]). Live
// members already pass Lower. A member too far from u to witness
// (tooFar) is passed over without reading its path.
func (f *Forest) scanSide(u, v int, w float64) bool {
	rv := f.r[v]
	for _, m := range f.Live(u) {
		f.scans++
		x := int(m)
		if f.tooFar(u, x, w, rv) {
			continue
		}
		if f.b.WithinUpper(f.dS[x] + math.Max(f.r[x], f.path(u, x)+w+rv)) {
			return true
		}
	}
	return false
}

// pathSlack is the margin pathLow takes off the pair distance, and off
// per unit of the two nodes' weighted depths, before using the result as
// a lower bound on the path read path(u,x). A weighted depth is a float
// sum of at most k edge weights (k the node's depth in edges) that
// rounds within k·2⁻⁵³ of its magnitude, so each depth difference of
// the read is off by at most about 2k·2⁻⁵³ of the larger depth, and the
// read by at most (2k+3)·2⁻⁵³·(depth[u] + depth[x]) in all. Reset caps
// k below 2³⁰, so that stays under 3e-7 of the depth sum. The pair
// distance rounds within a few ulps of its own magnitude.
const pathSlack = 1e-6

// pathLow returns a lower bound on the scan's read path(u,x): the pair
// distance At(u,x), less pathSlack of itself and of depth[u] + depth[x].
// No tree path is shorter than the pair distance (Pairs), so this stays
// below the read whatever its rounding. The depth term matters when u
// and x are nearly coincident deep in a tree: there the read's absolute
// error, of order ulp(depth), dwarfs any fraction of their distance.
func (f *Forest) pathLow(u, x int) float64 {
	return f.pair.At(u, x)*(1-pathSlack) - (f.depth[u]+f.depth[x])*pathSlack
}

// tooFar reports that x cannot witness the merge across (u,v): it
// evaluates the scan's upper test with pathLow(u,x) in place of the
// path read, grouped the same way. Float addition is weakly monotone, so
// when this lower bound already fails the bound the exact test fails
// too, and the scan moves on without the path read.
func (f *Forest) tooFar(u, x int, w, rv float64) bool {
	return !f.b.WithinUpper(f.dS[x] + (f.pathLow(u, x) + w + rv))
}

// path returns the length of the forest path between x and y, two
// members of one source-free tree, from the rooted forest.
func (f *Forest) path(x, y int) float64 {
	l := f.lca(id32(x), id32(y))
	return (f.depth[x] - f.depth[l]) + (f.depth[y] - f.depth[l])
}

// lca returns the nearest common ancestor of x and y, two members of one
// source-free tree. The deeper node climbs to the other's depth, then
// both climb in step; each climb takes a jump pointer whenever it does
// not overshoot, which the skew-binary layout makes O(log n) steps. A
// node's jump target depends only on its depth, so nodes at one depth
// jump to one depth, and two ancestors that differ there leave the
// common ancestor above.
func (f *Forest) lca(x, y int32) int32 {
	up, hops, jump := f.up, f.hops, f.jump
	if hops[x] < hops[y] {
		x, y = y, x
	}
	for hops[x] > hops[y] {
		if j := jump[x]; hops[j] >= hops[y] {
			x = j
		} else {
			x = up[x]
		}
	}
	for x != y {
		if jump[x] != jump[y] {
			x, y = jump[x], jump[y]
		} else {
			x, y = up[x], up[y]
		}
	}
	return x
}

// Link performs the paper's Merge for an accepted edge (u,v) of weight
// w between two different trees and unions them. Only the state a later
// feasibility test reads is updated: when one side holds the source,
// the other side's source paths; otherwise the radii that grow, the
// rooted forest, the merged tree's diameter and its live list.
func (f *Forest) Link(u, v int, w float64) {
	switch {
	case f.InSource(u):
		f.joinSource(u, v, w)
	case f.InSource(v):
		f.joinSourceFar(u, v, w)
	default:
		f.mergeFree(u, v, w)
		return
	}
	f.addHalves(u, v, w)
}

// addHalves records the edge (u,v) of weight w in the adjacency and
// unions the two trees.
func (f *Forest) addHalves(u, v int, w float64) {
	f.addHalf(u, v, w)
	f.addHalf(v, u, w)
	f.ds.Union(u, v)
}

// addHalf appends the half-edge x→y of weight w to the arena and to the
// end of x's chain.
func (f *Forest) addHalf(x, y int, w float64) {
	h := id32(len(f.half))
	f.half = append(f.half, halfEdge{w: w, to: id32(y), next: -1})
	if f.head[x] < 0 {
		f.head[x] = h
	} else {
		f.half[f.tail[x]].next = h
	}
	f.tail[x] = h
}

// joinSource records the source paths of v's tree as it joins the
// source tree through u: distS[y] = (distS[u] + w) + path(v,y).
func (f *Forest) joinSource(u, v int, w float64) {
	d := f.PathsFrom(v)
	base := f.distS[u] + w
	for _, y := range f.ds.Members(v) {
		f.distS[y] = base + d[y]
	}
}

// joinSourceFar is joinSource with the source tree on the far side of
// the edge: u's tree joins through v, grouped as
// (path(x,u) + w) + distS[v].
func (f *Forest) joinSourceFar(u, v int, w float64) {
	d := f.PathsFrom(u)
	dv := f.distS[v]
	for _, x := range f.ds.Members(u) {
		f.distS[x] = d[x] + w + dv
	}
}

// mergeFree links two source-free trees across (u,v). The merged
// diameter is D = max(D_u, D_v, r[u] + w + r[v]); a side whose diameter
// D equals keeps its radii (see the file comment), and a side whose
// diameter grew is filled and its radii raised in closed form —
// (path(x,u) + w) + r[v] on u's side, (r[u] + w) + path(v,y) on v's side.
// Float addition is weakly monotone, so these equal the maxima over the
// cross pairs' paths bit for bit. The smaller tree is filled last, and
// that fill re-roots it under the larger.
func (f *Forest) mergeFree(u, v int, w float64) {
	a, b := f.ds.Find(u), f.ds.Find(v)
	ru, rv := f.r[u], f.r[v]
	d := max(f.diam[a], f.diam[b], ru+w+rv)
	type end struct {
		x    int
		grew bool
		rFar float64 // the far side's radius at its endpoint
		far  bool    // v's side: grouped (r[u] + w) + path
	}
	growU, growV := d > f.diam[a], d > f.diam[b]
	ends := [2]end{{u, growU, rv, false}, {v, growV, ru, true}}
	if f.ds.Size(u) < f.ds.Size(v) {
		ends[0], ends[1] = ends[1], ends[0]
	}
	for i, e := range ends {
		if e.grew || i == 1 {
			f.fill(e.x)
		}
		if e.grew {
			f.raise(e.x, w, e.rFar, e.far)
		}
	}
	f.hang(ends[1].x, ends[0].x, w)
	f.addHalves(u, v, w)
	f.diam[f.ds.Find(u)] = d
	f.mergeLive(a, b, growU, growV)
}

// raise raises the radius of every member y of x's tree, just filled
// from x, to its path through the edge of weight w to the far side's
// farthest node, rFar beyond the edge: (path(x,y) + w) + rFar, or
// (rFar + w) + path(x,y) when far.
func (f *Forest) raise(x int, w, rFar float64, far bool) {
	d, r := f.dist, f.r
	for _, y := range f.ds.Members(x) {
		nr := d[y] + w + rFar
		if far {
			nr = rFar + w + d[y]
		}
		if nr > r[y] {
			r[y] = nr
		}
	}
}

// hang re-roots x's tree, just filled from x, under p across an edge of
// weight w: x's parent becomes p, every other member's parent its DFS
// parent, and depths, weighted depths and jump pointers follow parents
// first, in the fill's order.
func (f *Forest) hang(x, p int, w float64) {
	up, hops, depth, jump, via, dist := f.up, f.hops, f.depth, f.jump, f.via, f.dist
	via[x] = id32(p)
	base := depth[p] + w
	for _, y := range f.seq {
		q := via[y]
		up[y] = q
		hops[y] = id32(int(hops[q]) + 1)
		depth[y] = base + dist[y]
		if j := jump[q]; hops[q]-hops[j] == hops[j]-hops[jump[j]] {
			jump[y] = jump[j]
		} else {
			jump[y] = q
		}
	}
}

// mergeLive writes the live list of the source-free set just merged
// from the sets named a and b, called after the union; growA and growB
// report whose radii grew. A member dead in either old list stays dead,
// and a list whose radii did not change holds no newly dead member, so
// only the grown sides' old lists are filtered, each in place and in
// order, and the surviving name's list comes first. The order thus
// depends on the merge history alone, never on a pooled scratch's
// buffers. The merged list goes into whichever old buffer has the
// larger capacity and the absorbed name keeps the other, so buffers
// follow the large sets rather than the names — tied to a name, a
// pooled scratch's buffer would grow over many instances to the largest
// set that name ever stood for, on every name.
//
// (3-b) is existential, so the order of the list decides how many
// members a scan reads (witness_scans), never whether it finds a
// witness.
func (f *Forest) mergeLive(a, b int, growA, growB bool) {
	rep, gone, growRep, growGone := a, b, growA, growB
	if f.ds.Find(a) != a {
		rep, gone, growRep, growGone = b, a, growB, growA
	}
	head, tail := f.live[rep], f.live[gone]
	if growRep {
		head = f.keepAlive(head)
	}
	if growGone {
		tail = f.keepAlive(tail)
	}
	if cap(tail) > cap(head) {
		f.live[rep], f.live[gone] = slices.Insert(tail, 0, head...), head[:0]
	} else {
		f.live[rep], f.live[gone] = append(head, tail...), tail[:0]
	}
}

// keepAlive filters list in place down to its alive members.
func (f *Forest) keepAlive(list []int32) []int32 {
	out := list[:0]
	for _, x := range list {
		if f.alive(int(x)) {
			out = append(out, x)
		}
	}
	return out
}

// fill runs a complete DFS over root's tree from root: dist[x] =
// path(root, x) and via[x] = x's DFS parent (root's is root) for every
// member x, and seq lists the members in the order reached, each after
// its parent. The adjacency is a forest, so the one neighbour of x
// already reached is its DFS parent.
func (f *Forest) fill(root int) {
	half, head, dist, via := f.half, f.head, f.dist, f.via
	dist[root] = 0
	via[root] = id32(root)
	f.stack = append(f.stack[:0], id32(root))
	st, seq := f.stack, f.seq[:0]
	for len(st) > 0 {
		last := len(st) - 1
		x := st[last]
		st = st[:last]
		seq = append(seq, x)
		for h := head[x]; h >= 0; h = half[h].next {
			e := &half[h]
			if e.to == via[x] {
				continue
			}
			dist[e.to] = dist[x] + e.w
			via[e.to] = x
			st = append(st, e.to)
		}
	}
	f.stack, f.seq = st, seq
	f.visits += int64(len(seq))
}

// PathsFrom returns path(x,·), valid over the members of x's tree: a
// complete fill from x. The result is the fill buffer, owned by the
// forest and overwritten by the next fill.
func (f *Forest) PathsFrom(x int) []float64 {
	f.fill(x)
	return f.dist
}
