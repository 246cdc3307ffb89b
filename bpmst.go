package bpmst

import (
	"context"
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/exchange"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/steiner"
)

// Point is a terminal location on the routing plane.
type Point = geom.Point

// Metric selects the plane metric.
type Metric = geom.Metric

// The supported metrics. Manhattan (L1) is the rectilinear VLSI wiring
// metric used throughout the paper; Euclidean (L2) is supported by every
// spanning tree constructor (but not by the Hanan grid Steiner
// construction).
const (
	Manhattan = geom.Manhattan
	Euclidean = geom.Euclidean
)

// Edge is an undirected tree edge between terminal indices (0 = source)
// with its wirelength.
type Edge struct {
	U, V int
	W    float64
}

// RCModel holds the Elmore delay parameters; see BKRUSElmore.
type RCModel = delay.Model

// DefaultRCModel returns representative RC parameters for examples.
func DefaultRCModel() RCModel { return delay.DefaultModel() }

// ErrInfeasible is returned when no tree can satisfy the requested
// bounds (possible with lower bounds, Elmore delay bounds, or exhausted
// exact-search budgets — never for plain BKRUS/BPRIM/BRBC with ε ≥ 0).
var ErrInfeasible = errors.New("bpmst: no tree satisfies the requested bounds")

// ErrBudget is returned by BMSTG when the enumeration budget is
// exhausted before an optimal bounded tree is found.
var ErrBudget = errors.New("bpmst: exact enumeration budget exhausted")

// Net is a routing problem: a source driving a set of sinks on a metric
// plane. Construct with NewNet.
type Net struct {
	in *inst.Instance
}

// NewNet builds a net from a source, at least one sink, and a metric.
func NewNet(source Point, sinks []Point, m Metric) (*Net, error) {
	in, err := inst.New(source, sinks, m)
	if err != nil {
		return nil, err
	}
	return &Net{in: in}, nil
}

// NumSinks returns the number of sinks.
func (n *Net) NumSinks() int { return n.in.NumSinks() }

// Source returns the source location.
func (n *Net) Source() Point { return n.in.Source() }

// Sinks returns the sink locations.
func (n *Net) Sinks() []Point { return n.in.Sinks() }

// Terminal returns the location of terminal id (0 = source, 1..NumSinks
// = sinks).
func (n *Net) Terminal(id int) Point { return n.in.Point(id) }

// Metric returns the plane metric.
func (n *Net) Metric() Metric { return n.in.Metric() }

// R returns the direct distance from the source to the farthest sink —
// the radius of the shortest path tree and the reference for all bounds.
func (n *Net) R() float64 { return n.in.R() }

// NearestR returns the direct distance to the nearest sink.
func (n *Net) NearestR() float64 { return n.in.NearestR() }

// Bound returns the absolute path length bound (1+eps)·R.
func (n *Net) Bound(eps float64) float64 { return n.in.Bound(eps) }

// Tree is a spanning routing tree over a net's terminals.
type Tree struct {
	net *Net
	t   *graph.Tree
}

func (n *Net) wrap(t *graph.Tree) *Tree { return &Tree{net: n, t: t} }

// Net returns the net the tree routes.
func (t *Tree) Net() *Net { return t.net }

// Cost returns the total wirelength.
func (t *Tree) Cost() float64 { return t.t.Cost() }

// Edges returns the tree edges as terminal-index pairs.
func (t *Tree) Edges() []Edge {
	out := make([]Edge, len(t.t.Edges))
	for i, e := range t.t.Edges {
		out[i] = Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// PathLengths returns the tree path length from the source to every
// terminal (index 0 is the source itself, length 0).
func (t *Tree) PathLengths() []float64 {
	return t.t.PathLengthsFrom(graph.Source)
}

// Radius returns the longest source-sink path length.
func (t *Tree) Radius() float64 { return t.t.Radius(graph.Source) }

// ShortestSinkPath returns the shortest source-sink path length.
func (t *Tree) ShortestSinkPath() float64 {
	d := t.PathLengths()
	min := math.Inf(1)
	for v := 1; v < len(d); v++ {
		if d[v] < min {
			min = d[v]
		}
	}
	return min
}

// Skew returns the ratio of the longest to the shortest source-sink path
// length — the paper's s column in Table 5 (1.0 = zero skew).
func (t *Tree) Skew() float64 {
	short := t.ShortestSinkPath()
	if short == 0 {
		return math.Inf(1)
	}
	return t.Radius() / short
}

// PathRatio returns radius / R: the paper's "path ratio", the longest
// path of this tree over the longest path of the SPT.
func (t *Tree) PathRatio() float64 {
	r := t.net.R()
	if r == 0 {
		return math.Inf(1)
	}
	return t.Radius() / r
}

// PerfRatio returns cost(t) / cost(ref): the paper's "performance
// ratio", typically taken over the MST.
func (t *Tree) PerfRatio(ref *Tree) float64 {
	if ref.Cost() == 0 {
		return math.Inf(1)
	}
	return t.Cost() / ref.Cost()
}

// WithinBound reports whether every source-sink path length is at most
// (1+eps)·R (within the engine's floating point tolerance).
func (t *Tree) WithinBound(eps float64) bool {
	return core.FeasibleTree(t.t, core.UpperOnly(t.net.in, eps))
}

// Validate checks the tree spans all terminals without cycles.
func (t *Tree) Validate() error { return t.t.Validate() }

// build runs the registered constructor name on the net through
// engine.Build, the one path every public constructor takes.
func (n *Net) build(name string, p engine.Params) (engine.Result, error) {
	return engine.Build(context.Background(), name, n.in, p)
}

// tree runs a spanning constructor, mapping the layers' sentinel errors
// to the public ones.
func (n *Net) tree(name string, p engine.Params) (*Tree, error) {
	r, err := n.build(name, p)
	if err != nil {
		return nil, wrapErr(err)
	}
	return n.wrap(r.Tree), nil
}

// reference runs an unbounded constructor, which cannot fail: the
// context never cancels and the complete graph always connects.
func (n *Net) reference(name string) *Tree {
	t, _ := n.tree(name, engine.Params{})
	return t
}

// MST returns a minimal spanning tree (Kruskal) — minimal wirelength,
// unbounded paths.
func (n *Net) MST() *Tree { return n.reference("mst") }

// SPT returns the shortest path tree (Dijkstra) — minimal paths, maximal
// practical wirelength.
func (n *Net) SPT() *Tree { return n.reference("spt") }

// MaxST returns the maximal spanning tree, the expensive end of the
// paper's Figure 11 cost chart.
func (n *Net) MaxST() *Tree { return n.reference("maxst") }

// BKRUS constructs a bounded path length spanning tree by the paper's
// bounded Kruskal heuristic (§3.1). Always succeeds for eps ≥ 0 (eps may
// be +Inf, yielding the MST).
func BKRUS(n *Net, eps float64) (*Tree, error) {
	return n.tree("bkrus", engine.Params{Eps: eps})
}

// BKRUSLU constructs a spanning tree with every source-sink path length
// in [eps1·R, (1+eps2)·R] (§6, clock routing). Returns ErrInfeasible
// when the window cannot be met by a spanning tree heuristic.
func BKRUSLU(n *Net, eps1, eps2 float64) (*Tree, error) {
	return n.tree("bkruslu", engine.Params{Eps1: eps1, Eps2: eps2})
}

// BPRIM constructs the bounded Prim baseline tree (Cong et al. 1992).
func BPRIM(n *Net, eps float64) (*Tree, error) {
	return n.tree("bprim", engine.Params{Eps: eps})
}

// BRBC constructs the bounded-radius bounded-cost baseline tree (Cong et
// al. 1992): radius ≤ (1+eps)·R and cost ≤ (1 + 2/eps)·cost(MST).
func BRBC(n *Net, eps float64) (*Tree, error) {
	return n.tree("brbc", engine.Params{Eps: eps})
}

// AHHK constructs the Prim-Dijkstra trade-off tree of Alpert et al.
// (ISCAS 1993), the paper's reference [9]: grow from the source
// minimizing c·path(S,u) + dist(u,v). c = 0 is the MST, c = 1 the SPT;
// no hard path-length guarantee.
func AHHK(n *Net, c float64) (*Tree, error) {
	return n.tree("ahhk", engine.Params{AHHKC: c})
}

// GabowOptions tunes the exact BMSTG search; the zero value applies the
// default budget. The Lemma 4.1-4.3 edge filters always run.
type GabowOptions struct {
	// MaxTrees caps how many spanning trees the enumeration may generate
	// (0 = a built-in default). Exceeding it returns ErrBudget.
	MaxTrees int
}

// BMSTG returns an optimal bounded path length MST by Gabow-style
// enumeration of spanning trees in nondecreasing cost (§4). Exponential
// space in the worst case; intended for nets of up to ~15 sinks.
func BMSTG(n *Net, eps float64, opt GabowOptions) (*Tree, error) {
	return n.tree("bmstg", engine.Params{Eps: eps, GabowBudget: opt.MaxTrees})
}

// BMSTGLU is BMSTG with both lower and upper path length bounds.
func BMSTGLU(n *Net, eps1, eps2 float64, opt GabowOptions) (*Tree, error) {
	return n.tree("bmstglu", engine.Params{Eps1: eps1, Eps2: eps2, GabowBudget: opt.MaxTrees})
}

// BKEX runs the paper's negative-sum-exchange exact method (§5): BKRUS
// followed by iterated exchange search. maxDepth caps the exchange chain
// length per search (0 = V-1, which loses no solutions; the paper found
// depth 6 sufficient on all 2750 random benchmarks).
func BKEX(n *Net, eps float64, maxDepth int) (*Tree, error) {
	return n.tree("bkex", engine.Params{Eps: eps, ExchangeDepth: maxDepth})
}

// BKH2 runs the paper's depth-2 exchange heuristic (§5): a deeper local
// optimum than BKRUS at O(E²V³).
func BKH2(n *Net, eps float64) (*Tree, error) {
	return n.tree("bkh2", engine.Params{Eps: eps})
}

// Improve applies negative-sum-exchange search (capped at maxDepth
// chained exchanges, 0 = V-1) to an existing bounded tree, returning an
// equal-or-cheaper tree within the same eps bound.
func Improve(t *Tree, eps float64, maxDepth int) (*Tree, error) {
	res, err := exchange.Improve(context.Background(), t.net.in, t.t, core.UpperOnly(t.net.in, eps), exchange.Options{MaxDepth: maxDepth})
	if err != nil {
		return nil, err
	}
	return t.net.wrap(res.Tree), nil
}

// BKRUSElmore constructs a spanning tree whose worst source-sink Elmore
// delay is at most (1+eps)·R, where R is the worst delay of the direct
// source-sink star (§3.2). May return ErrInfeasible for weak drivers. A
// zero model means DefaultRCModel().
func BKRUSElmore(n *Net, eps float64, m RCModel) (*Tree, error) {
	return n.tree("elmore", engine.Params{Eps: eps, RC: m})
}

// ElmoreDelays returns the Elmore delay from the source to every
// terminal of the tree under the given RC model (driver term included).
func ElmoreDelays(t *Tree, m RCModel) []float64 {
	return delay.SourceDelays(t.t, m)
}

// ElmoreRadius returns the worst source-sink Elmore delay of the tree.
func ElmoreRadius(t *Tree, m RCModel) float64 {
	return delay.SourceRadius(t.t, m)
}

// ElmoreStarR returns the paper's R under the Elmore model: the worst
// source-sink delay of the direct star.
func ElmoreStarR(n *Net, m RCModel) float64 {
	return delay.StarR(n.in, m)
}

// BKH2Elmore is the delay-model analogue of BKH2: BKRUSElmore followed
// by depth-2 negative-sum-exchange search constrained by the Elmore
// delay bound — exchanges reduce wirelength while the worst source-sink
// delay stays within (1+eps)·R. A zero model means DefaultRCModel().
func BKH2Elmore(n *Net, eps float64, m RCModel) (*Tree, error) {
	return n.tree("bkh2elmore", engine.Params{Eps: eps, RC: m})
}

// BufferSpec models a repeater cell for buffer insertion (§8 future
// work): output resistance, input capacitance, and intrinsic delay.
type BufferSpec = delay.Buffer

// BufferedTree is a routing tree with repeaters placed at a subset of
// its terminals.
type BufferedTree struct {
	net *Net
	bt  *delay.BufferedTree
}

// InsertBuffers places up to maxBuffers repeaters (< 0 = unlimited) on
// the tree by van Ginneken's dynamic program: the minimal worst
// source-sink Elmore delay over placements at tree nodes. The DP prunes
// dominated (capacitance, required-time) options bottom-up.
func InsertBuffers(t *Tree, m RCModel, buf BufferSpec, maxBuffers int) (*BufferedTree, error) {
	bt, err := delay.VanGinneken(t.t, m, buf, maxBuffers)
	if err != nil {
		return nil, err
	}
	return &BufferedTree{net: t.net, bt: bt}, nil
}

// WorstDelay returns the worst source-sink Elmore delay with buffers.
func (b *BufferedTree) WorstDelay() float64 { return b.bt.WorstDelay() }

// Delays returns the per-terminal delays with buffers.
func (b *BufferedTree) Delays() []float64 { return b.bt.Delays() }

// NumBuffers returns how many repeaters were placed.
func (b *BufferedTree) NumBuffers() int { return b.bt.NumBuffers() }

// BufferTerminals returns the terminal indices carrying a repeater.
func (b *BufferedTree) BufferTerminals() []int {
	var out []int
	for v, placed := range b.bt.At {
		if placed {
			out = append(out, v)
		}
	}
	return out
}

// SizedTree is a routing tree with per-wire width assignments (§8 "wire
// sizing"): wider wires trade resistance for capacitance.
type SizedTree struct {
	net *Net
	st  *delay.SizedTree
}

// SizeWires greedily widens wires (within the allowed ascending width
// set, which must start at 1) to minimize the worst source-sink Elmore
// delay, applying at most maxChanges width bumps.
func SizeWires(t *Tree, m RCModel, allowed []float64, maxChanges int) (*SizedTree, error) {
	st, err := delay.SizeWires(t.t, m, allowed, maxChanges)
	if err != nil {
		return nil, err
	}
	return &SizedTree{net: t.net, st: st}, nil
}

// WorstDelay returns the worst source-sink Elmore delay under the
// sizing.
func (s *SizedTree) WorstDelay() float64 { return s.st.WorstDelay() }

// Delays returns per-terminal delays under the sizing.
func (s *SizedTree) Delays() []float64 { return s.st.Delays() }

// WireArea returns total metal area (Σ length × width).
func (s *SizedTree) WireArea() float64 { return s.st.WireArea() }

// Widths returns the per-edge width assignment, parallel to the source
// tree's Edges().
func (s *SizedTree) Widths() []float64 {
	return append([]float64(nil), s.st.Widths...)
}

// wrapErr converts internal sentinel errors to the public ones.
func wrapErr(err error) error {
	switch {
	case errors.Is(err, core.ErrInfeasible),
		errors.Is(err, delay.ErrInfeasible),
		errors.Is(err, steiner.ErrInfeasible):
		return ErrInfeasible
	case errors.Is(err, exact.ErrBudget):
		return ErrBudget
	default:
		return err
	}
}
