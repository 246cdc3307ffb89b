package core

// This file holds the BKRUS engine's forest bookkeeping, the one
// bookkeeping both substrates use. The paper's Merge stores P[x][y] —
// the in-forest path length between every same-tree pair of a
// source-free tree — which is O(n²) bytes and makes every merge of two
// source-free trees write a cross-product of entries. The engine keeps
// the forest itself instead:
//
//   - adj[x]: the partial forest's adjacency lists (tree edges accepted
//     so far), O(n) total;
//   - distS[x]: the in-tree path length from the source to x, defined
//     only once x joins the source tree — tree paths never change after
//     a merge, so one assignment per node suffices;
//   - dist/stamp/stack: one incremental DFS from an edge endpoint,
//     giving path(endpoint, x) for the members x of that endpoint's
//     tree it has reached so far.
//
// Every P read the paper's tests and Merge perform is a row of an edge
// endpoint over the members of its own tree, so a DFS from the endpoint
// reproduces exactly the rows the feasibility test and merge need. The
// witness scan reads members in witness order, passes over those too
// far from the endpoint to witness (tooFar), and usually stops after a
// few, so it advances the DFS only until the member whose path it reads
// next is reached. A merge runs the DFS to completion, over the
// source-free side only when the other side holds the source. A merge
// costs O(|t_u| + |t_v|) instead of O(|t_u|·|t_v|), and the whole
// engine carries no n² state.
//
// Floating point: every node's distance is its DFS parent's plus the
// edge weight, so any traversal order yields the same bits, and the
// merge sums are grouped one way — path(x,u) + w, then + the far-side
// term. With one engine there is one grouping: the dense and sparse
// substrates differ only in the edges they offer, so wherever they
// accept the same edges they compute the same bits. relTol is there for
// trees that sit exactly on the bound (bkrus.go), not to absorb a
// second implementation's rounding.

// startFill begins an incremental DFS over the partial forest from
// root. A new epoch invalidates every stamp of the previous fill in
// O(1); only when the 32-bit epoch wraps are the stamps cleared.
func (e *engine) startFill(root int) {
	e.epoch++
	if e.epoch == 0 {
		clear(e.stamp)
		e.epoch = 1
	}
	e.stamp[root] = e.epoch
	e.dist[root] = 0
	//lint:ignore intwidth root is a vertex id < n, and newEngine guards n <= MaxInt32 (guardVertexIDSpace, pinned by TestVertexIDSpaceGuard)
	e.stack = append(e.stack[:0], int32(root))
}

// fillUntil advances the current fill until target has been reached
// (stamp[target] is the fill's epoch and dist[target] holds
// path(root, target)), or to completion when target < 0. target must be
// a member of root's tree. A node is stamped and its distance written
// when it is pushed, so a member is readable as soon as its parent has
// been expanded. Entries of dist outside the reached set keep stale
// values; callers only read reached members.
func (e *engine) fillUntil(target int) {
	adj, dist, stamp, ep := e.adj, e.dist, e.stamp, e.epoch
	st := e.stack
	for len(st) > 0 && (target < 0 || stamp[target] != ep) {
		last := len(st) - 1
		x := int(st[last])
		st = st[:last]
		for _, a := range adj[x] {
			if stamp[a.To] == ep {
				continue // x's DFS parent
			}
			stamp[a.To] = ep
			dist[a.To] = dist[x] + a.W
			//lint:ignore intwidth adjacency targets are vertex ids < n, and newEngine guards n <= MaxInt32 (guardVertexIDSpace, pinned by TestVertexIDSpaceGuard)
			st = append(st, int32(a.To))
		}
	}
	e.stack = st
}
