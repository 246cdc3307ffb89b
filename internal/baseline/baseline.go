// Package baseline implements the two prior-art heuristics the paper
// compares against, both from Cong, Kahng, Robins et al., "Provably Good
// Performance-Driven Global Routing" (IEEE TCAD 1992):
//
//   - BPRIM, the bounded Prim construction: grow the tree from the source,
//     always adding the cheapest edge whose new source-sink path respects
//     the bound. Its worst-case performance ratio over the MST is
//     unbounded (the paper's Figure 1 pathology).
//   - BRBC, the bounded-radius bounded-cost construction: take a
//     depth-first tour of the MST, insert a direct source shortcut every
//     time the accumulated tour length reaches ε·R, and return the
//     shortest path tree of the augmented graph. Radius ≤ (1+ε)·R and
//     cost ≤ (1 + 2/ε)·cost(MST) are guaranteed.
//
// Bookkeeping invariants and complexity:
//
//   - BPRIM fixes pathLen[v] (the source-path length) at insertion and
//     never revisits it; best[v]/bestFrom[v] hold the cheapest feasible
//     attachment seen so far, refreshed by one relaxation sweep per
//     insertion — O(n²) scans total, the same loop Prim uses.
//   - BRBC's tour accumulator counts both the descending and the
//     backtracking leg of every MST edge, so the tour length between
//     consecutive shortcuts is at most 2·ε·R, which is what the cost
//     proof of CKR 1992 charges per shortcut. Kruskal + the Dijkstra
//     pass dominate at O(n² log n).
//
// Relaxation-scan and shortcut counts are recorded into the counter set
// the caller passes, the "baseline" obs scope (see OBSERVABILITY.md).
package baseline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

// BPRIMBuild constructs a bounded path length spanning tree by the
// bounded Prim rule. Every source-sink path is at most (1+eps)·R; the
// direct source edge is always feasible, so the construction always
// completes for eps ≥ 0. It records into c (nil counts nothing) and
// polls ctx once per attachment, so the O(n²) construction aborts
// within one relaxation sweep of cancellation.
func BPRIMBuild(ctx context.Context, in *inst.Instance, eps float64, c *Counters) (*graph.Tree, error) {
	if eps < 0 {
		return nil, fmt.Errorf("baseline: negative eps %g", eps)
	}
	dm := in.Oracle()
	n := in.N()
	bound := in.Bound(eps)
	t := graph.NewTree(n)
	if n <= 1 {
		return t, nil
	}
	inTree := make([]bool, n)
	pathLen := make([]float64, n) // source-path length, fixed at insertion
	best := make([]float64, n)    // cheapest feasible connection cost
	bestFrom := make([]int, n)
	inTree[graph.Source] = true
	for v := 0; v < n; v++ {
		best[v] = math.Inf(1)
		bestFrom[v] = -1
	}
	var scans, rejects int64 // accumulated locally, flushed once
	relax := func(u int) {
		for v := 0; v < n; v++ {
			if inTree[v] || v == u {
				continue
			}
			scans++
			w := dm.At(u, v)
			if pathLen[u]+w > bound {
				rejects++
				continue
			}
			if w < best[v] {
				best[v] = w
				bestFrom[v] = u
			}
		}
	}
	relax(graph.Source)
	chk := cancel.New(ctx, 1)
	for k := 1; k < n; k++ {
		if err := chk.Err(); err != nil {
			return nil, err
		}
		v := -1
		for j := 0; j < n; j++ {
			if !inTree[j] && bestFrom[j] != -1 && (v == -1 || best[j] < best[v]) {
				v = j
			}
		}
		if v == -1 {
			// cannot happen for eps >= 0: the direct source edge is feasible
			return nil, fmt.Errorf("baseline: BPRIM stuck with %d nodes attached", k)
		}
		u := bestFrom[v]
		inTree[v] = true
		pathLen[v] = pathLen[u] + best[v]
		t.AddEdge(u, v, best[v])
		relax(v)
	}
	if c != nil {
		c.BPRIMRelaxScans.Add(scans)
		c.BPRIMBoundRejections.Add(rejects)
		c.BPRIMAttachments.Add(int64(n - 1))
	}
	return t, nil
}

// BRBCBuild constructs the bounded-radius bounded-cost tree. eps = +Inf
// returns the plain MST; eps = 0 degenerates to the shortest path tree.
// It records into c (nil counts nothing) and polls ctx inside the MST
// scan and again after the tour, bounding post-cancellation work to
// one stride of the scan or the O(n) tour.
func BRBCBuild(ctx context.Context, in *inst.Instance, eps float64, c *Counters) (*graph.Tree, error) {
	if eps < 0 {
		return nil, fmt.Errorf("baseline: negative eps %g", eps)
	}
	chk := cancel.New(ctx, 1)
	dm := in.DistMatrix()
	n := in.N()
	m, err := mst.KruskalFrom(ctx, n, graph.NewEdgeStream(dm))
	if err != nil {
		return nil, err
	}
	if math.IsInf(eps, 1) || n <= 2 {
		if c != nil {
			c.BRBCMSTReturns.Inc()
		}
		return m, nil
	}
	budget := eps * in.R()

	// Depth-first tour of the MST from the source; every time the
	// accumulated tour length reaches the budget at a vertex, record a
	// direct source shortcut and reset the accumulator.
	adj := m.Adjacency()
	shortcut := make([]bool, n)
	visited := make([]bool, n)
	var sum float64
	var dfs func(u int)
	dfs = func(u int) {
		visited[u] = true
		for _, a := range adj[u] {
			if visited[a.To] {
				continue
			}
			sum += a.W
			if sum >= budget && a.To != graph.Source {
				shortcut[a.To] = true
				sum = 0
			}
			dfs(a.To)
			sum += a.W // backtracking leg of the tour
			if sum >= budget {
				sum = 0 // reset applies at u again; shortcut(u) already exists or u is behind us
				if u != graph.Source {
					shortcut[u] = true
				}
			}
		}
	}
	dfs(graph.Source)
	if err := chk.Err(); err != nil {
		return nil, err
	}

	augmented := append([]graph.Edge(nil), m.Edges...)
	var shortcuts int64
	for v := 1; v < n; v++ {
		if shortcut[v] {
			shortcuts++
			augmented = append(augmented, graph.Edge{U: graph.Source, V: v, W: dm.At(graph.Source, v)})
		}
	}
	if c != nil {
		c.BRBCShortcuts.Add(shortcuts)
	}
	//lint:ignore ctxflow final BRBC phase after the last phase poll; the SPT pass must run whole to return a valid tree
	return mst.SPTEdges(n, augmented, graph.Source), nil
}
