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
//     tree's);
//   - live[rep]: the members of the source-free set named rep that can
//     still witness condition (3-b) (see mergeLive);
//   - dist/stamp/stack: one incremental DFS from an edge endpoint,
//     giving path(endpoint, x) for the members x of that endpoint's
//     tree it has reached so far.
//
// Every P read the paper's tests and Merge perform is a row of an edge
// endpoint over the members of its own tree, so a DFS from the endpoint
// reproduces exactly the rows the feasibility test and merge need. The
// witness scan reads live members, passes over those too far from the
// endpoint to witness (tooFar), and usually stops after a few, so it
// advances the DFS only until the member whose path it reads next is
// reached. A merge runs the DFS to completion, over the source-free side
// only when the other side holds the source. A merge costs
// O(|t_u| + |t_v|) instead of O(|t_u|·|t_v|), and no state is O(n²).
//
// Floating point: every node's distance is its DFS parent's plus the
// edge weight, so any traversal order yields the same bits, and the
// merge sums are grouped one way — path(x,u) + w, then + the far-side
// term. The two constructions differ only in the edges they offer, the
// metric that prunes the scan and the source distances, so wherever
// they offer the same edges they compute the same bits. relTol is there
// for trees that sit exactly on the bound (bkrus.go), not to absorb a
// second implementation's rounding.

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
	src   int
	dS    []float64 // dist(S,x), the metric distance the witness test reads
	pair  Pairs
	b     Bounds
	ds    *graph.DisjointSet
	half  []halfEdge // the adjacency arena, two entries per linked edge
	head  []int32    // head[x] = x's first half-edge, -1 while x has none
	tail  []int32    // tail[x] = x's last half-edge, valid once head[x] >= 0
	distS []float64
	r     []float64
	live  [][]int32
	scans int64 // live members the (3-b) scans have read since Reset

	// The incremental DFS: distances from the fill root, per-fill epoch
	// stamps marking the nodes reached, and the stack.
	dist  []float64
	stamp []uint32
	epoch uint32
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
	f.src, f.pair, f.b, f.scans = src, pair, b, 0
	f.half = f.half[:0]
	if cap(f.distS) < n {
		f.dS = make([]float64, n)
		f.distS = make([]float64, n)
		f.r = make([]float64, n)
		f.dist = make([]float64, n)
		f.stamp = make([]uint32, n)
		f.head = make([]int32, n)
		f.tail = make([]int32, n)
	} else {
		f.dS, f.distS, f.r, f.dist, f.stamp = f.dS[:n], f.distS[:n], f.r[:n], f.dist[:n], f.stamp[:n]
		f.head, f.tail = f.head[:n], f.tail[:n]
		clear(f.r)
		clear(f.stamp)
	}
	for x := range f.head {
		f.head[x] = -1
	}
	f.epoch = 0
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
	b := int64(cap(f.dS)+cap(f.distS)+cap(f.r)+cap(f.dist)) * 8
	b += int64(cap(f.stamp)+cap(f.stack)+cap(f.head)+cap(f.tail)) * 4
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
	f.startFill(u)
	rv := f.r[v]
	for _, m := range f.Live(u) {
		f.scans++
		x := int(m)
		if f.tooFar(u, x, w, rv) {
			continue
		}
		if f.b.WithinUpper(f.dS[x] + math.Max(f.r[x], f.pathFrom(x)+w+rv)) {
			return true
		}
	}
	return false
}

// pathSlack is the relative margin tooFar takes off the pair distance
// before using it as a lower bound on the float path(u,x). A float sum
// of k edge weights is within about (k+3)·2⁻⁵³ of the real path length,
// and Reset caps k below 2³¹, so the rounding stays under 3e-7.
const pathSlack = 1e-6

// tooFar reports that x cannot witness the merge across (u,v): it
// evaluates the scan's upper test with the pair distance At(u,x) in
// place of the in-tree path(u,x), grouped the same way. No tree path is
// shorter than the pair distance (Pairs), and float addition is weakly
// monotone, so when this lower bound already fails the bound the exact
// test fails too, and the scan moves on without the path read, that is
// without advancing the DFS to x.
func (f *Forest) tooFar(u, x int, w, rv float64) bool {
	low := f.pair.At(u, x)*(1-pathSlack) + w + rv
	return !f.b.WithinUpper(f.dS[x] + low)
}

// Link performs the paper's Merge for an accepted edge (u,v) of weight
// w between two different trees and unions them. Only the state a later
// feasibility test reads is updated: when one side holds the source,
// the other side's source paths; otherwise both sides' radii and the
// merged tree's live list.
func (f *Forest) Link(u, v int, w float64) {
	a, b := f.ds.Find(u), f.ds.Find(v)
	free := false
	switch {
	case f.InSource(u):
		f.joinSource(u, v, w)
	case f.InSource(v):
		f.joinSourceFar(u, v, w)
	default:
		f.mergeFree(u, v, w)
		free = true
	}
	f.addHalf(u, v, w)
	f.addHalf(v, u, w)
	f.ds.Union(u, v)
	if free {
		f.mergeLive(a, b)
	}
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

// mergeFree joins two source-free trees and raises the radii in closed
// form — (path(x,u) + w) + r[v] for the near side, (r[u] + w) +
// path(v,y) for the far side. Float addition is weakly monotone, so
// these equal the maxima over the cross pairs' paths bit for bit. Must
// run before the disjoint-set union so the two member lists are still
// separate.
func (f *Forest) mergeFree(u, v int, w float64) {
	mu := f.ds.Members(u)
	mv := f.ds.Members(v)
	ru, rv := f.r[u], f.r[v]
	du := f.PathsFrom(u)
	for _, x := range mu {
		if nr := du[x] + w + rv; nr > f.r[x] {
			f.r[x] = nr
		}
	}
	dv := f.PathsFrom(v)
	baseU := ru + w
	for _, y := range mv {
		if nr := baseU + dv[y]; nr > f.r[y] {
			f.r[y] = nr
		}
	}
}

// mergeLive writes the live list of the source-free set just merged
// from the sets named a and b, called after the union (radii changed
// during the merge). A member dead in either old list stays dead, so
// only the two old lists are filtered, each in place and in order, and
// the surviving name's list comes first. The order thus depends on the
// merge history alone, never on a pooled scratch's buffers. The merged
// list goes into whichever old buffer has the larger capacity and the
// absorbed name keeps the other, so buffers follow the large sets
// rather than the names — tied to a name, a pooled scratch's buffer
// would grow over many instances to the largest set that name ever
// stood for, on every name.
//
// (3-b) is existential, so the order of the list decides how many
// members a scan reads (witness_scans), never whether it finds a
// witness.
func (f *Forest) mergeLive(a, b int) {
	rep, gone := a, b
	if f.ds.Find(a) != a {
		rep, gone = b, a
	}
	head, tail := f.keepAlive(f.live[rep]), f.keepAlive(f.live[gone])
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

// startFill begins an incremental DFS over the partial forest from
// root. A new epoch invalidates every stamp of the previous fill in
// O(1); only when the 32-bit epoch wraps are the stamps cleared.
func (f *Forest) startFill(root int) {
	f.epoch++
	if f.epoch == 0 {
		clear(f.stamp)
		f.epoch = 1
	}
	f.stamp[root] = f.epoch
	f.dist[root] = 0
	f.stack = append(f.stack[:0], id32(root))
}

// fillUntil advances the current fill until target has been reached
// (stamp[target] is the fill's epoch and dist[target] holds
// path(root, target)), or to completion when target < 0. target must be
// a member of root's tree. A node is stamped and its distance written
// when it is pushed, so a member is readable as soon as its parent has
// been expanded. Entries of dist outside the reached set keep stale
// values; callers only read reached members.
func (f *Forest) fillUntil(target int) {
	half, head, dist, stamp, ep := f.half, f.head, f.dist, f.stamp, f.epoch
	st := f.stack
	for len(st) > 0 && (target < 0 || stamp[target] != ep) {
		last := len(st) - 1
		x := st[last]
		st = st[:last]
		for h := head[x]; h >= 0; h = half[h].next {
			e := &half[h]
			if stamp[e.to] == ep {
				continue // x's DFS parent
			}
			stamp[e.to] = ep
			dist[e.to] = dist[x] + e.w
			st = append(st, e.to)
		}
	}
	f.stack = st
}

// pathFrom returns path(root, x) for a member x of the current fill
// root's tree, advancing the fill (see startFill) just far enough to
// reach x.
func (f *Forest) pathFrom(x int) float64 {
	f.fillUntil(x)
	return f.dist[x]
}

// PathsFrom returns path(x,·), valid over the members of x's tree: a
// complete fill from x. The result is the fill buffer, owned by the
// forest and overwritten by the next fill.
func (f *Forest) PathsFrom(x int) []float64 {
	f.startFill(x)
	f.fillUntil(-1)
	return f.dist
}
