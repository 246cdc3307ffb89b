package core

// This file holds the sparse-substrate half of the BKRUS engine. The
// dense engine stores P[x][y] — the in-forest path length between every
// same-tree pair — which is what caps instances near n ≈ 10³: the
// matrix alone is O(n²) bytes and every merge writes a cross-product of
// entries. The sparse engine keeps the forest itself instead:
//
//   - adj[x]: the partial forest's adjacency lists (tree edges accepted
//     so far), O(n) total;
//   - distS[x]: the in-tree path length from the source to x, defined
//     only once x joins the source tree — tree paths never change after
//     a merge, so one assignment per node suffices;
//   - pathU/pathV: per-candidate scratch filled by a DFS from an edge
//     endpoint, giving path(endpoint, x) for every member x of that
//     endpoint's tree.
//
// Every P-matrix read the dense engine performs is over a *current
// member* of one of the two trees touched by the candidate edge, so a
// DFS from the endpoint reproduces exactly the rows the feasibility
// test and merge need — the "touch only reachable rows" restructuring.
// A merge costs O(|t_u| + |t_v|) instead of O(|t_u|·|t_v|), and the
// whole engine carries no n² state.
//
// Floating point: sums are grouped to match the dense recurrences
// (path(x,u) + w, then + the far-side term), so the two modes agree to
// the last ulp on most instances; where a multi-merge history groups
// additions differently the bound tests' relative tolerance (relTol)
// absorbs the ulp-level divergence. The conformance and property tests
// pin exact agreement on the supported corpora.

import (
	"math"

	"repro/internal/graph"
)

// fillPaths runs an iterative DFS over the partial forest from root,
// writing the in-tree path length root→x into out[x] for every member
// x of root's tree. Entries of out outside root's tree keep stale
// values; callers only index out by current members. The stacks grow
// by append in the engine's scratch and are reused across calls.
func (e *engine) fillPaths(root int, out []float64) {
	adj := e.adj
	out[root] = 0
	sn := e.stackNode[:0]
	sp := e.stackPar[:0]
	//lint:ignore intwidth root is a vertex id < n, and newEngine guards n <= MaxInt32 (guardVertexIDSpace, pinned by TestVertexIDSpaceGuard)
	sn = append(sn, int32(root))
	sp = append(sp, -1)
	for len(sn) > 0 {
		// Pop both stacks through one guarded index: sn and sp grow and
		// shrink in lockstep, and `last` is provably in range under the
		// loop guard, so the prover sees both pops as in-bounds.
		last := len(sn) - 1
		x := int(sn[last])
		par := sp[last]
		sn = sn[:last]
		sp = sp[:last]
		for _, a := range adj[x] {
			//lint:ignore intwidth adjacency targets are vertex ids < n, and newEngine guards n <= MaxInt32 (guardVertexIDSpace, pinned by TestVertexIDSpaceGuard)
			if int32(a.To) == par {
				continue
			}
			out[a.To] = out[x] + a.W
			//lint:ignore intwidth adjacency targets are vertex ids < n, and newEngine guards n <= MaxInt32 (guardVertexIDSpace, pinned by TestVertexIDSpaceGuard)
			sn = append(sn, int32(a.To))
			sp = append(sp, int32(x))
		}
	}
	e.stackNode, e.stackPar = sn, sp
}

// witnessExistsSparse is condition (3-b) on the sparse substrate: the
// same byBase scan as the dense path, with P-matrix rows replaced by a
// DFS from each endpoint. The base-sorted member order still gives the
// early exit, the DFS is skipped entirely when even the smallest-base
// member fails the bound, and side v's DFS never runs when side u
// already witnessed.
func (e *engine) witnessExistsSparse(ed graph.Edge) bool {
	u, v, w := ed.U, ed.V, ed.W
	scans := int64(0)
	defer func() {
		if e.c != nil && scans > 0 {
			e.c.WitnessScans.Add(scans)
		}
	}()
	if e.scanSideSparse(u, v, w, e.pathU, &scans) {
		return true
	}
	return e.scanSideSparse(v, u, w, e.pathV, &scans)
}

// scanSideSparse scans u's tree for a witness of the tentative merge
// with v's tree across an edge of weight w, filling path with the
// in-tree distances from u on demand.
func (e *engine) scanSideSparse(u, v int, w float64, path []float64, scans *int64) bool {
	members := e.byBase[e.ds.Find(u)]
	// Sorted by base: when the smallest base already exceeds the bound
	// no member can witness, and the DFS never runs.
	if len(members) == 0 || !e.b.WithinUpper(e.witnessBase(members[0])) {
		*scans++
		return false
	}
	e.fillPaths(u, path)
	for _, x := range members {
		*scans++
		if !e.b.WithinUpper(e.witnessBase(x)) {
			break
		}
		rM := math.Max(e.r[x], path[x]+w+e.r[v])
		if e.witnessOK(x, rM) {
			return true
		}
	}
	return false
}

// mergeSparse performs the Merge bookkeeping without a P-matrix: one
// DFS per side yields every in-tree path the radius and source-path
// updates need. Grouping mirrors the dense recurrences exactly —
// (path(x,u) + w) + r[v] for the near side, (r[u] + w) + path(v,y) for
// the far side — because float addition is weakly monotone, so the
// dense cross-product maxima collapse to these closed forms term by
// term. Must run before the disjoint-set union, like merge.
func (e *engine) mergeSparse(ed graph.Edge) {
	u, v, w := ed.U, ed.V, ed.W
	mu := e.ds.Members(u)
	mv := e.ds.Members(v)
	e.fillPaths(u, e.pathU)
	e.fillPaths(v, e.pathV)
	ru, rv := e.r[u], e.r[v]
	for _, x := range mu {
		if nr := e.pathU[x] + w + rv; nr > e.r[x] {
			e.r[x] = nr
		}
	}
	baseU := ru + w
	for _, y := range mv {
		if nr := baseU + e.pathV[y]; nr > e.r[y] {
			e.r[y] = nr
		}
	}
	// Source paths become defined for the source-free side the moment
	// the trees join; they never change afterwards (tree paths are
	// immutable once present), so each node's distS is written once.
	if e.ds.Same(graph.Source, u) {
		base := e.distS[u] + w
		for _, y := range mv {
			e.distS[y] = base + e.pathV[y]
		}
	} else if e.ds.Same(graph.Source, v) {
		dv := e.distS[v]
		for _, x := range mu {
			e.distS[x] = e.pathU[x] + w + dv
		}
	}
	e.adj[u] = append(e.adj[u], graph.Adj{To: v, W: w})
	e.adj[v] = append(e.adj[v], graph.Adj{To: u, W: w})
}
