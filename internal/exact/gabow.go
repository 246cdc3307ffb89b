// Package exact implements the paper's §4: an optimal BMST algorithm in
// the style of Gabow's spanning-tree enumeration. Spanning trees are
// generated in nondecreasing cost order by a branch-and-partition scheme
// over (included, excluded) edge constraints; the first tree that
// satisfies the path-length bounds is an optimal bounded path length MST.
//
// The space complexity is exponential in the worst case (the heap can
// hold a subproblem per generated tree), which is exactly the drawback
// the paper works around with BKEX; a tree budget keeps runs bounded and
// a budget overrun is reported as an explicit error. Lemmas 4.1-4.3
// shrink the candidate edge set before enumeration:
//
//   - 4.1: drop sink-sink edge (a,b) if it outweighs both direct source
//     edges (S,a) and (S,b) — no optimal tree uses it;
//   - 4.2: drop (a,b) if both w(S,a)+w(a,b) and w(S,b)+w(a,b) exceed the
//     bound — including it strands one endpoint;
//   - 4.3: force edge (S,a) if every two-hop connection to a already
//     violates the bound — a must connect directly.
package exact

import (
	"context"
	"errors"
	"math"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
)

// ErrBudget is returned when the enumeration exceeds its tree budget
// before finding a feasible spanning tree.
var ErrBudget = errors.New("exact: tree enumeration budget exhausted")

// DefaultMaxTrees bounds enumeration when Options.MaxTrees is zero.
const DefaultMaxTrees = 200000

// Options tunes the exact search.
type Options struct {
	// MaxTrees caps how many spanning trees may be generated; 0 means
	// DefaultMaxTrees.
	MaxTrees int
	// DisableLemmas turns off the Lemma 4.1-4.3 edge filtering, which is
	// useful for measuring how much the preprocessing saves.
	DisableLemmas bool
}

// BMSTGBounds returns an optimal bounded path length minimal spanning
// tree for the bound window b — core.UpperOnly(in, ε) for the paper's
// (1+ε)·R, or the §6 window (Lemma 6.1 is applied when a lower bound is
// active) — or ErrBudget if the enumeration budget runs out, or
// core.ErrInfeasible if no spanning tree satisfies the bounds. The
// search tree can grow exponentially, so the context is polled on every
// subproblem pop: cancelling ctx aborts the enumeration with ctx.Err()
// after at most one constrained-MST partition step.
func BMSTGBounds(ctx context.Context, in *inst.Instance, b core.Bounds, opt Options) (*graph.Tree, error) {
	t, _, err := BMSTGWithStats(ctx, in, b, opt)
	return t, err
}

// SearchStats describes one exact search run.
type SearchStats struct {
	CandidateEdges int // edges surviving the lemma filters
	ForcedEdges    int // edges forced by Lemma 4.3
	TreesPopped    int // spanning trees examined in cost order
	PeakHeap       int // largest subproblem heap size
}

// BMSTGWithStats is BMSTGBounds returning search statistics: how far
// into the cost-ordered tree sequence the optimum sat, and how much the
// lemma preprocessing shrank the search.
func BMSTGWithStats(ctx context.Context, in *inst.Instance, b core.Bounds, opt Options) (*graph.Tree, SearchStats, error) {
	var st SearchStats
	if err := b.Validate(); err != nil {
		return nil, st, err
	}
	budget := opt.MaxTrees
	if budget <= 0 {
		budget = DefaultMaxTrees
	}
	cand, forced := candidateEdges(in, b, !opt.DisableLemmas)
	st.CandidateEdges = len(cand)
	st.ForcedEdges = len(forced)
	e := &enumerator{n: in.N(), sorted: cand}

	//lint:ignore ctxflow one-shot root relaxation before the polled enumeration loop; latency is bounded by a single Kruskal pass
	root, ok := mst.ConstrainedKruskal(e.n, e.sorted, forced, nil)
	if !ok {
		return nil, st, core.ErrInfeasible
	}
	chk := cancel.New(ctx, 1)
	h := newSubHeap(&subproblem{tree: root, cost: root.Cost(), include: forced})
	for h.Len() > 0 {
		if h.Len() > st.PeakHeap {
			st.PeakHeap = h.Len()
		}
		if err := chk.Err(); err != nil {
			return nil, st, err
		}
		if budget == 0 {
			return nil, st, ErrBudget
		}
		budget--
		sub := h.Pop()
		st.TreesPopped++
		if core.FeasibleTree(sub.tree, b) {
			return sub.tree, st, nil
		}
		e.partition(sub, h)
	}
	return nil, st, core.ErrInfeasible
}

// KBest returns up to k spanning trees in nondecreasing cost order,
// ignoring bounds. Exposed for validation against brute force in tests
// and for ablation studies of the enumeration itself.
func KBest(in *inst.Instance, k int) []*graph.Tree {
	cand := graph.CompleteEdges(in.DistMatrix())
	graph.SortEdges(cand)
	e := &enumerator{n: in.N(), sorted: cand}
	root, ok := mst.ConstrainedKruskal(e.n, e.sorted, nil, nil)
	if !ok {
		return nil
	}
	h := newSubHeap(&subproblem{tree: root, cost: root.Cost()})
	var out []*graph.Tree
	for h.Len() > 0 && len(out) < k {
		sub := h.Pop()
		out = append(out, sub.tree)
		e.partition(sub, h)
	}
	return out
}

// candidateEdges builds the (possibly lemma-filtered) candidate edge list
// in sorted order, plus the forced inclusions from Lemma 4.3.
func candidateEdges(in *inst.Instance, b core.Bounds, lemmas bool) (sorted, forced []graph.Edge) {
	dm := in.DistMatrix()
	n := in.N()
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := dm.At(i, j)
			if i == graph.Source && !b.WithinLower(w) {
				continue // Lemma 6.1
			}
			if lemmas && i != graph.Source {
				// Lemma 4.1
				if w > dm.At(graph.Source, i) && w > dm.At(graph.Source, j) {
					continue
				}
				// Lemma 4.2 (same tolerance as FeasibleTree so borderline
				// edges stay in the candidate set)
				if !b.WithinUpper(dm.At(graph.Source, i)+w) && !b.WithinUpper(dm.At(graph.Source, j)+w) {
					continue
				}
			}
			edges = append(edges, graph.Edge{U: i, V: j, W: w})
		}
	}
	graph.SortEdges(edges)
	if lemmas && !math.IsInf(b.Upper, 1) {
		for a := 1; a < n; a++ {
			mustDirect := true
			for x := 1; x < n; x++ {
				if x == a {
					continue
				}
				if b.WithinUpper(dm.At(graph.Source, x) + dm.At(x, a)) {
					mustDirect = false
					break
				}
			}
			if mustDirect {
				forced = append(forced, graph.Edge{U: graph.Source, V: a, W: dm.At(graph.Source, a)})
			}
		}
	}
	return edges, forced
}

// subproblem is a region of the spanning-tree space: all spanning trees
// containing every include edge and no exclude edge; tree is the cheapest
// one in the region.
type subproblem struct {
	tree    *graph.Tree
	cost    float64
	include []graph.Edge
	exclude map[graph.Key]bool
}

// newSubHeap returns a subproblem queue holding only root, cheapest
// tree first.
func newSubHeap(root *subproblem) *graph.Heap[*subproblem] {
	h := graph.NewHeap(func(a, b *subproblem) bool { return a.cost < b.cost })
	h.Push(root)
	return h
}

type enumerator struct {
	n      int
	sorted []graph.Edge
}

// partition splits sub's region (minus its own tree) into disjoint child
// regions: with free edges e1..em of the popped tree, child i requires
// e1..e(i-1) and forbids ei. Each child's constrained MST is its cheapest
// representative; every spanning tree is generated exactly once.
func (e *enumerator) partition(sub *subproblem, h *graph.Heap[*subproblem]) {
	inc := make(map[graph.Key]bool, len(sub.include))
	for _, edge := range sub.include {
		inc[edge.Key()] = true
	}
	var free []graph.Edge
	for _, edge := range sub.tree.Edges {
		if !inc[edge.Key()] {
			free = append(free, edge)
		}
	}
	childInclude := append([]graph.Edge(nil), sub.include...)
	for _, ei := range free {
		childExclude := make(map[graph.Key]bool, len(sub.exclude)+1)
		for k := range sub.exclude {
			childExclude[k] = true
		}
		childExclude[ei.Key()] = true
		include := append([]graph.Edge(nil), childInclude...)
		if t, ok := mst.ConstrainedKruskal(e.n, e.sorted, include, childExclude); ok {
			h.Push(&subproblem{tree: t, cost: t.Cost(), include: include, exclude: childExclude})
		}
		childInclude = append(childInclude, ei)
	}
}
