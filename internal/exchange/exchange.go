// Package exchange implements the paper's §5: the negative-sum-exchange
// search engine behind the BKEX exact post-processing method and the
// BKH2 depth-2 heuristic (Improve from a BKRUS tree, unlimited or at
// depth 2).
//
// A T-exchange removes a tree edge e and adds a non-tree edge f such that
// the result is again a spanning tree; its weight is w(f) - w(e). A
// negative-sum-exchange sequence is a chain of T-exchanges whose running
// weight sum stays negative. BKEX searches such sequences depth-first
// from an initial feasible tree (BKT by default): whenever a cheaper
// feasible tree is found it becomes the new search root, until no
// improving sequence exists.
//
// The engine follows the paper's DFS_EXCHANGE pseudocode: for every
// non-tree edge (x,y), walk the two endpoints toward their common
// ancestor in the source-rooted father array; every step pairs (x,y)
// with the tree edge (v, FA[v]) as a candidate exchange, which is
// applied only while the running sum stays negative.
package exchange

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/inst"
)

// Options controls a negative-sum-exchange search.
type Options struct {
	// MaxDepth caps the number of chained exchanges per search. 0 means
	// V-1, which loses no solutions: any spanning tree — in particular an
	// optimal one — is reachable from any other by at most V-1
	// T-exchanges, as the paper notes in §5. BKH2 uses MaxDepth = 2.
	MaxDepth int
	// MaxExpansions bounds the total search work across the whole
	// improvement run, counted in candidate T-exchange evaluations
	// (every father-array step of every non-tree edge costs one unit);
	// 0 means unlimited. The paper caps BKH2 runs by CPU time on the
	// largest benchmarks; a work budget is the deterministic equivalent.
	MaxExpansions int
}

// Result reports the outcome of an improvement run.
type Result struct {
	Tree       *graph.Tree
	Iterations int  // number of accepted improvements
	Truncated  bool // true if the expansion budget ran out
}

// Feasibility decides whether a candidate spanning tree satisfies the
// problem's constraints. The engine only accepts improvements that pass
// it, so any constraint — wirelength bounds, Elmore delay bounds — can
// drive the same search.
type Feasibility func(*graph.Tree) bool

// Improve runs iterated negative-sum-exchange search on a feasible
// starting tree, returning the improved tree (the input is not
// modified). The starting tree must already satisfy the bounds. The
// context is polled periodically inside the exchange enumeration, so a
// cancelled ctx aborts the search with ctx.Err() within a bounded
// number of candidate evaluations.
//
// From a BKRUS tree (BKT) it is both of the paper's §5 methods. With
// MaxDepth 0 (unlimited) it is BKEX, the exact method: the search runs
// to a local, empirically global, optimum; the paper reports depth 6
// solved every random benchmark of its 2750-case study. With MaxDepth
// 2 it is BKH2, the depth-2 heuristic: single and double exchanges
// until no improvement remains. By Lemma 3.1 BKT is already a local
// optimum for single exchanges, so depth 2 is the first level that can
// improve it. MaxExpansions caps BKH2 on the large benchmarks; when it
// runs out the best tree found so far is returned.
func Improve(ctx context.Context, in *inst.Instance, start *graph.Tree, b core.Bounds, opt Options) (Result, error) {
	return ImproveFunc(ctx, in, start, func(t *graph.Tree) bool {
		return core.FeasibleTree(t, b)
	}, opt)
}

// ImproveFunc is Improve with an arbitrary feasibility predicate.
func ImproveFunc(ctx context.Context, in *inst.Instance, start *graph.Tree, feasible Feasibility, opt Options) (Result, error) {
	//lint:ignore ctxflow pre-search O(n) structural validation, same contract as the feasibility check below
	if err := start.Validate(); err != nil {
		return Result{}, fmt.Errorf("exchange: invalid starting tree: %w", err)
	}
	if !feasible(start) {
		return Result{}, fmt.Errorf("exchange: starting tree violates the feasibility constraint")
	}
	maxDepth := opt.MaxDepth
	if maxDepth <= 0 {
		maxDepth = in.N() - 1
	}
	s := &searcher{
		dm:       in.DistMatrix(),
		feasible: feasible,
		maxDepth: maxDepth,
		budget:   opt.MaxExpansions,
		chk:      cancel.New(ctx, 256),
		t:        start.Clone(),
	}
	s.edges = graph.CompleteEdges(s.dm)
	graph.SortEdges(s.edges)

	res := Result{}
	for {
		// The running exchange sum from the root to a tree T' equals
		// cost(T') - cost(root) regardless of the chain taken, so each
		// intermediate tree can be memoized: once explored at depth d it
		// need not be re-entered at depth >= d.
		s.visited = make(map[string]int)
		improved := s.dfs(0, 0)
		if s.err != nil {
			return Result{}, s.err
		}
		if !improved {
			break
		}
		res.Iterations++
		// s.t now holds the strictly cheaper feasible tree; search again
		// from the new root (paper's BKEX outer loop).
	}
	res.Tree = s.t
	res.Truncated = s.exhausted
	return res, nil
}

// searcher carries the mutable state of one improvement run.
type searcher struct {
	dm        graph.Weights
	feasible  Feasibility
	maxDepth  int
	budget    int // remaining expansions; meaningful only if > 0 initially
	limited   bool
	exhausted bool
	chk       cancel.Checker
	err       error // context error that aborted the search, if any
	t         *graph.Tree
	edges     []graph.Edge
	visited   map[string]int // tree signature -> smallest depth fully explored
}

// signature canonically identifies a tree by its edge key set. Edge
// order does not matter: each edge is hashed independently (FNV-1a over
// its canonical key) and the per-edge hashes are XOR-combined, which is
// order-insensitive. For small trees the exact sorted-key string is
// appended too, making the signature collision-free exactly where the
// engine's exactness claims live; large trees (the budget-limited BKH2
// regime) rely on the 64-bit hash alone, where a collision merely skips
// re-exploring one candidate state and can never corrupt the tree.
func signature(t *graph.Tree) string {
	const exactLimit = 64
	var combined uint64
	for _, e := range t.Edges {
		k := e.Key()
		h := uint64(14695981039346656037)
		for _, v := range [2]int{k.U, k.V} {
			x := uint64(v)
			for i := 0; i < 8; i++ {
				h ^= x & 0xff
				h *= 1099511628211
				x >>= 8
			}
		}
		combined ^= h
	}
	if t.N > exactLimit {
		return strconv.FormatUint(combined, 16)
	}
	keys := make([]graph.Key, len(t.Edges))
	for i, e := range t.Edges {
		keys[i] = e.Key()
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].U != keys[j].U {
			return keys[i].U < keys[j].U
		}
		return keys[i].V < keys[j].V
	})
	var b strings.Builder
	b.Grow(len(keys)*8 + 16)
	b.WriteString(strconv.FormatUint(combined, 16))
	for _, k := range keys {
		fmt.Fprintf(&b, ";%d,%d", k.U, k.V)
	}
	return b.String()
}

func (s *searcher) spend() bool { return s.spendN(1) }

// spendN withdraws n work units; applied exchanges cost O(V) (tree edit,
// feasibility check, memo signature), so they charge V units on top of
// the candidate step, keeping the budget proportional to wall time.
// Cancellation rides the same choke point: once the searcher's context
// is cancelled, spendN fails permanently and the DFS unwinds (restoring
// the tree on the way out) exactly like budget exhaustion.
func (s *searcher) spendN(n int) bool {
	if s.err != nil {
		return false
	}
	if err := s.chk.Tick(); err != nil {
		s.err = err
		return false
	}
	if s.budget == 0 && !s.limited {
		return true // unlimited
	}
	s.limited = true
	if s.budget < n {
		s.budget = 0
		s.exhausted = true
		return false
	}
	s.budget -= n
	return true
}

// dfs is DFS_EXCHANGE(T, weight_sum): it tries every T-exchange whose
// running sum stays negative; on finding a cheaper feasible tree it
// leaves it in s.t and returns true. depth counts exchanges already
// applied on the current chain.
func (s *searcher) dfs(weightSum float64, depth int) bool {
	fa, dep := s.t.FatherArray(graph.Source)
	inTree := make(map[graph.Key]bool, len(s.t.Edges))
	for _, e := range s.t.Edges {
		inTree[e.Key()] = true
	}
	for _, e := range s.edges {
		if inTree[e.Key()] {
			continue
		}
		u, v := e.U, e.V
		for u != v {
			if dep[u] > dep[v] {
				u, v = v, u
			}
			// v is the deeper endpoint; (v, fa[v]) lies on the cycle that
			// (x,y) closes, so swapping them preserves the spanning tree.
			if !s.spend() {
				return false
			}
			parent := fa[v]
			remW := s.dm.At(v, parent)
			diff := e.W - remW
			if diff+weightSum < -1e-12 {
				if !s.spendN(s.t.N) {
					return false
				}
				s.t.RemoveEdge(v, parent)
				s.t.AddEdge(e.U, e.V, e.W)
				sig := signature(s.t)
				prev, seen := s.visited[sig]
				switch {
				case seen && prev <= depth:
					// already explored with at least as much depth left
				case s.feasible(s.t):
					return true
				case depth+1 < s.maxDepth:
					s.visited[sig] = depth
					if s.dfs(diff+weightSum, depth+1) {
						return true
					}
				default:
					s.visited[sig] = depth
				}
				s.t.RemoveEdge(e.U, e.V)
				s.t.AddEdge(v, parent, remW)
			}
			v = parent
		}
	}
	return false
}

// CountExchanges returns the number of distinct T-exchanges available on
// tree t over the complete graph — O(EV) in the worst case, exposed for
// diagnostics and tests.
func CountExchanges(in *inst.Instance, t *graph.Tree) int {
	fa, dep := t.FatherArray(graph.Source)
	inTree := make(map[graph.Key]bool, len(t.Edges))
	for _, e := range t.Edges {
		inTree[e.Key()] = true
	}
	count := 0
	n := in.N()
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if inTree[graph.EdgeKey(x, y)] {
				continue
			}
			u, v := x, y
			for u != v {
				if dep[u] > dep[v] {
					u, v = v, u
				}
				count++
				v = fa[v]
			}
		}
	}
	return count
}

// Gap returns the relative cost gap of t over reference cost ref,
// guarding against division by zero.
func Gap(t *graph.Tree, ref float64) float64 {
	if ref == 0 {
		return math.Inf(1)
	}
	return t.Cost()/ref - 1
}
