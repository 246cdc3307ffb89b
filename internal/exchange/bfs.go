package exchange

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// BKH2BFS is a literal reading of the paper's BKH2 description: "does
// one or two negative-sum-exchange(s) in the breadth first search manner
// and checks if the resultant tree is a solution; repeated until there
// is no improvement". Each round enumerates every single exchange and
// every pair of chained exchanges with a negative running sum, applies
// the best feasible improvement found, and repeats.
//
// The DFS engine with MaxDepth=2 explores the same space (it differs
// only in taking the first improvement per iteration instead of the
// best); both converge to depth-2-exchange local optima of equal cost on
// the paper's benchmarks — TestBKH2BFSAgreesWithDFS verifies the
// equivalence empirically. Exposed for fidelity validation; production
// callers should prefer Improve at MaxDepth 2, the budgeted engine.
// The search starts from start (left untouched) under bounds b; the
// paper starts it from the BKRUS tree under the upper-only bound.
func BKH2BFS(start *graph.Tree, dm graph.Weights, b core.Bounds) *graph.Tree {
	t := start
	for {
		improved := bestDoubleExchange(t, dm, b)
		if improved == nil {
			return t
		}
		t = improved
	}
}

// exchangeCand is one applicable T-exchange on the current tree.
type exchangeCand struct {
	addU, addV int
	remU, remV int
	diff       float64
}

// enumerate lists every T-exchange of t over the complete graph.
func enumerate(t *graph.Tree, dm graph.Weights) []exchangeCand {
	fa, dep := t.FatherArray(graph.Source)
	inTree := make(map[graph.Key]bool, len(t.Edges))
	for _, e := range t.Edges {
		inTree[e.Key()] = true
	}
	var out []exchangeCand
	n := t.N
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if inTree[graph.EdgeKey(x, y)] {
				continue
			}
			addW := dm.At(x, y)
			u, v := x, y
			for u != v {
				if dep[u] > dep[v] {
					u, v = v, u
				}
				parent := fa[v]
				out = append(out, exchangeCand{
					addU: x, addV: y, remU: v, remV: parent,
					diff: addW - dm.At(v, parent),
				})
				v = parent
			}
		}
	}
	return out
}

// apply returns t with the exchange applied (t itself untouched).
func apply(t *graph.Tree, dm graph.Weights, c exchangeCand) *graph.Tree {
	nt := t.Clone()
	nt.RemoveEdge(c.remU, c.remV)
	nt.AddEdge(c.addU, c.addV, dm.At(c.addU, c.addV))
	return nt
}

// bestDoubleExchange finds the feasible tree of least cost reachable by
// one or two exchanges with negative running sums, per the BKH2
// definition. It returns nil when no improvement exists.
func bestDoubleExchange(t *graph.Tree, dm graph.Weights, b core.Bounds) *graph.Tree {
	bestCost := t.Cost() - 1e-12
	var best *graph.Tree
	for _, c1 := range enumerate(t, dm) {
		if c1.diff >= -1e-12 {
			continue // prefix sums must stay negative
		}
		t1 := apply(t, dm, c1)
		if core.FeasibleTree(t1, b) && t1.Cost() < bestCost {
			bestCost = t1.Cost()
			best = t1
		}
		for _, c2 := range enumerate(t1, dm) {
			if c1.diff+c2.diff >= -1e-12 {
				continue
			}
			t2 := apply(t1, dm, c2)
			if core.FeasibleTree(t2, b) && t2.Cost() < bestCost {
				bestCost = t2.Cost()
				best = t2
			}
		}
	}
	return best
}
