// Package delay implements the paper's §3.2: the Elmore RC delay model
// and the BKRUS variant that bounds signal propagation delay instead of
// wirelength.
//
// A routing tree is an RC tree: every wire segment of length l has
// resistance r_s·l and capacitance c_s·l, every sink has a load
// capacitance, and the source drives the net through a driver resistance
// r_d with intrinsic capacitance c_d. The Elmore delay from node x to
// node y is
//
//	delay(x,y) = Σ_{k ∈ path(x→y), k≠x} r_s·l_k·(c_s·l_k/2 + C_k)
//
// where l_k is the length of the wire from k to its parent (the tree
// rooted at x) and C_k is the total downstream capacitance below that
// wire. When x is the source the driver adds r_d·(c_d + C_total).
package delay

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/inst"
)

// Model holds the RC parameters of the net.
type Model struct {
	RUnit   float64   // wire resistance per unit length (r_s)
	CUnit   float64   // wire capacitance per unit length (c_s)
	RDriver float64   // driver output resistance (r_d)
	CDriver float64   // driver intrinsic capacitance (c_d)
	Load    []float64 // per-node sink load capacitance; nil means all zero
}

// DefaultModel returns RC parameters representative of a late-90s CMOS
// process in normalized units: useful defaults for examples and tests.
func DefaultModel() Model {
	return Model{RUnit: 0.1, CUnit: 0.2, RDriver: 5, CDriver: 1}
}

// Validate checks physical sanity: non-negative parameters.
func (m Model) Validate() error {
	if m.RUnit < 0 || m.CUnit < 0 || m.RDriver < 0 || m.CDriver < 0 {
		return fmt.Errorf("delay: negative RC parameter in %+v", m)
	}
	for i, c := range m.Load {
		if c < 0 {
			return fmt.Errorf("delay: negative load capacitance %g at node %d", c, i)
		}
	}
	return nil
}

// LoadAt returns the load capacitance of node i (0 beyond the slice).
func (m Model) LoadAt(i int) float64 {
	if i < len(m.Load) {
		return m.Load[i]
	}
	return 0
}

// componentDelays computes Elmore delays from root across the connected
// component of root in the given edge set. It returns the delay of every
// reached node (delays[x] = NaN for unreached nodes), and the total
// capacitance of the component (wire + loads), which is what the driver
// sees when root is the source. The driver term is NOT included.
func componentDelays(n int, edges []graph.Edge, root int, m Model) (delays []float64, totalCap float64) {
	adj := make([][]graph.Adj, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], graph.Adj{To: e.V, W: e.W})
		adj[e.V] = append(adj[e.V], graph.Adj{To: e.U, W: e.W})
	}
	delays = make([]float64, n)
	for i := range delays {
		delays[i] = math.NaN()
	}
	// Post-order: downstream capacitance below each node (rooted at root).
	caps := make([]float64, n)
	parent := make([]int, n)
	parentLen := make([]float64, n)
	order := make([]int, 0, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[root] = -1
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for _, a := range adj[u] {
			if parent[a.To] == -2 {
				parent[a.To] = u
				parentLen[a.To] = a.W
				stack = append(stack, a.To)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		k := order[i]
		caps[k] += m.LoadAt(k)
		if p := parent[k]; p >= 0 {
			caps[p] += caps[k] + m.CUnit*parentLen[k]
		}
	}
	totalCap = caps[root]
	// Pre-order: accumulate delays down the tree.
	delays[root] = 0
	for _, k := range order[1:] {
		l := parentLen[k]
		delays[k] = delays[parent[k]] + m.RUnit*l*(m.CUnit*l/2+caps[k])
	}
	return delays, totalCap
}

// SourceDelays returns the Elmore delay from the source (node 0) to every
// node of tree t, including the driver term r_d·(c_d + C_total).
// Unreachable nodes get NaN.
func SourceDelays(t *graph.Tree, m Model) []float64 {
	delays, total := componentDelays(t.N, t.Edges, graph.Source, m)
	driver := m.RDriver * (m.CDriver + total)
	for i := range delays {
		if !math.IsNaN(delays[i]) {
			delays[i] += driver
		}
	}
	return delays
}

// DelaysFromNode returns Elmore delays from an arbitrary node (tree
// re-rooted there, no driver term), the paper's delay(u,v).
func DelaysFromNode(t *graph.Tree, root int, m Model) []float64 {
	delays, _ := componentDelays(t.N, t.Edges, root, m)
	return delays
}

// SourceRadius returns the maximum source-sink Elmore delay of the tree,
// the paper's r[source].
func SourceRadius(t *graph.Tree, m Model) float64 {
	var r float64
	for v, d := range SourceDelays(t, m) {
		if v != graph.Source && d > r {
			r = d
		}
	}
	return r
}

// StarR returns the paper's R under the Elmore model: the worst
// source-sink delay of the shortest path tree, which on a metric plane is
// the star of direct source-sink wires.
func StarR(in *inst.Instance, m Model) float64 {
	dm := in.DistMatrix()
	n := in.N()
	star := graph.NewTree(n)
	for v := 1; v < n; v++ {
		star.AddEdge(graph.Source, v, dm.At(graph.Source, v))
	}
	return SourceRadius(star, m)
}

// withinBound reports v <= bound within the same relative tolerance the
// core engine uses: bounded trees legitimately sit exactly on the bound.
func withinBound(v, bound float64) bool {
	return v <= bound+1e-9*math.Max(1, math.Abs(bound))
}

// ErrInfeasible is returned when the Elmore-bounded construction cannot
// span the net within the bound. Unlike the wirelength case, adding any
// wire raises every sink's delay through the shared driver resistance, so
// completion is not guaranteed for tight bounds and strong drivers are
// required (the paper assumes a low-resistance driver so the SPT star is
// always a solution; with such a driver the construction completes).
var ErrInfeasible = errors.New("delay: no spanning tree satisfies the Elmore delay bound")

// BKRUSElmore runs the bounded Kruskal construction with the Elmore delay
// model replacing wirelength: every source-sink delay of the result is at
// most (1+eps)·R where R = StarR(in, m). Feasibility tests follow §3.2:
//
//	(3-a') the merged tree containing the source keeps r[source] ≤ bound
//	       (all delays recomputed on the tentative merged topology);
//	(3-b') a source-free merged tree must contain a witness x with
//	       r_d·(c_d + c_s·d(S,x) + C_M) + r_s·d(S,x)·(c_s·d(S,x)/2 + C_M)
//	       + r_M[x] ≤ bound, i.e. a direct source wire through x could
//	       still serve every node.
//
// Because every committed wire loads the shared driver, greedy merges
// can strand a component even when feasible trees exist. BKRUSElmore
// therefore retries with progressively tighter internal acceptance
// bounds and ultimately falls back to the direct star, whose worst delay
// equals R — so for eps ≥ 0 a bound-respecting tree is always returned.
//
// The radii recomputation makes this O(E·V²); intended for the ≤ a few
// hundred sink nets that dominate delay-driven routing.
func BKRUSElmore(in *inst.Instance, eps float64, m Model) (*graph.Tree, error) {
	return BKRUSElmoreBuild(context.Background(), in, eps, m)
}

// BKRUSElmoreBuild is BKRUSElmore with a context polled inside the
// greedy edge scan of every ladder step, so the O(E·V²) construction
// aborts with ctx.Err() within a bounded number of edge examinations.
func BKRUSElmoreBuild(ctx context.Context, in *inst.Instance, eps float64, m Model) (*graph.Tree, error) {
	if eps < 0 {
		return nil, fmt.Errorf("delay: negative eps %g", eps)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	//lint:ignore ctxflow StarR is a single O(n) Elmore fold over the star tree before the cancellable ladder begins
	starR := StarR(in, m)
	bound := (1 + eps) * starR
	best := (*graph.Tree)(nil)
	// One lazy stream, rewound per step, sorts only the deepest prefix read.
	edges := graph.NewEdgeStream(in.DistMatrix())
	for _, f := range []float64{1.0, 0.8, 0.6, 0.4, 0.2} {
		accept := starR + f*(bound-starR)
		edges.Reset()
		t, ok, err := buildElmore(ctx, in, edges, m, accept)
		if err != nil {
			return nil, err
		}
		if ok && withinBound(SourceRadius(t, m), bound) {
			if best == nil || t.Cost() < best.Cost() {
				best = t
			}
			break // the first (loosest) completing ladder step is kept
		}
	}
	if best == nil {
		best = starTree(in)
		//lint:ignore ctxflow post-ladder O(n) Elmore fold on the finished fallback tree; the cancellable work already returned
		if !withinBound(SourceRadius(best, m), bound) {
			return nil, ErrInfeasible
		}
	}
	return best, nil
}

// starTree returns the direct source-sink star.
func starTree(in *inst.Instance) *graph.Tree {
	dm := in.DistMatrix()
	n := in.N()
	t := graph.NewTree(n)
	for v := 1; v < n; v++ {
		t.AddEdge(graph.Source, v, dm.At(graph.Source, v))
	}
	return t
}

// buildElmore runs one greedy bounded-Kruskal pass over edges with the
// given acceptance bound, reporting whether it spanned the net.
func buildElmore(ctx context.Context, in *inst.Instance, edges graph.EdgeSeq, m Model, bound float64) (*graph.Tree, bool, error) {
	dm := in.DistMatrix()
	n := in.N()
	ds := graph.NewDisjointSet(n)
	compEdges := make([][]graph.Edge, n) // edges per representative
	compLoad := make([]float64, n)       // sink load cap per representative
	var totalLoad float64
	for i := 0; i < n; i++ {
		compLoad[i] = m.LoadAt(i)
		totalLoad += m.LoadAt(i)
	}
	t := graph.NewTree(n)

	chk := cancel.New(ctx, 16)
	for len(t.Edges) < n-1 {
		ed, more := edges.Next()
		if !more {
			break
		}
		if err := chk.Tick(); err != nil {
			return nil, false, err
		}
		ru, rv := ds.Find(ed.U), ds.Find(ed.V)
		if ru == rv {
			continue
		}
		merged := make([]graph.Edge, 0, len(compEdges[ru])+len(compEdges[rv])+1)
		merged = append(merged, compEdges[ru]...)
		merged = append(merged, compEdges[rv]...)
		merged = append(merged, ed)
		// Every terminal outside the merged component must still join the
		// final tree, so its load capacitance inevitably reaches the
		// driver. Folding that floor into the driver term strengthens the
		// paper's tests soundly: it rejects merges that could only ever
		// complete by overloading the driver later.
		pendingLoad := totalLoad - compLoad[ru] - compLoad[rv]

		srcIn := ds.Same(graph.Source, ed.U) || ds.Same(graph.Source, ed.V)
		var ok bool
		if srcIn {
			delays, total := componentDelays(n, merged, graph.Source, m)
			driver := m.RDriver * (m.CDriver + total + pendingLoad)
			ok = true
			for v := range delays {
				if v != graph.Source && !math.IsNaN(delays[v]) && !withinBound(delays[v]+driver, bound) {
					ok = false
					break
				}
			}
		} else {
			ok = elmoreWitnessExists(n, merged, ds, ed, dm, m, bound, pendingLoad)
		}
		if !ok {
			continue
		}
		// Commit: capture member lists via Union, then store edges on the
		// surviving representative.
		ds.Union(ed.U, ed.V)
		r := ds.Find(ed.U)
		load := compLoad[ru] + compLoad[rv]
		compEdges[ru], compEdges[rv] = nil, nil
		compLoad[ru], compLoad[rv] = 0, 0
		compEdges[r] = merged
		compLoad[r] = load
		t.Edges = append(t.Edges, ed)
	}
	return t, len(t.Edges) == n-1, nil
}

// elmoreWitnessExists applies test (3-b'): some node x of the tentative
// merged component could carry a direct source wire serving every node
// within the bound.
func elmoreWitnessExists(n int, merged []graph.Edge, ds *graph.DisjointSet, ed graph.Edge, dm graph.Weights, m Model, bound, pendingLoad float64) bool {
	// Total capacitance of the merged component is root-independent.
	_, compCap := componentDelays(n, merged, ed.U, m)
	candidates := make([]int, 0, ds.Size(ed.U)+ds.Size(ed.V))
	candidates = append(candidates, ds.Members(ed.U)...)
	candidates = append(candidates, ds.Members(ed.V)...)
	for _, x := range candidates {
		dSx := dm.At(graph.Source, x)
		driver := m.RDriver * (m.CDriver + m.CUnit*dSx + compCap + pendingLoad)
		wire := m.RUnit * dSx * (m.CUnit*dSx/2 + compCap)
		if !withinBound(driver+wire, bound) {
			continue
		}
		delays, _ := componentDelays(n, merged, x, m)
		var radius float64
		for v := range delays {
			if !math.IsNaN(delays[v]) && delays[v] > radius {
				radius = delays[v]
			}
		}
		if withinBound(driver+wire+radius, bound) {
			return true
		}
	}
	return false
}
