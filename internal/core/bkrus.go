// Package core implements the paper's primary contribution: the Bounded
// path length KRUSkal construction (BKRUS, §3.1) and its lower+upper
// bounded variant (§6).
//
// BKRUS scans the complete-graph edges in nondecreasing weight order, as
// Kruskal does, merging two partial trees t_u and t_v by edge (u,v) only
// when the merged tree can still satisfy the path-length bound
// (1+ε)·R from the source to every sink:
//
//   - (3-a) if t_u contains the source:  path(S,u) + dist(u,v) + radius(v) ≤ bound
//     (symmetrically when t_v contains the source);
//   - (3-b) if neither contains the source: some node x of the merged tree
//     must satisfy dist(S,x) + radius_M(x) ≤ bound, so a direct source
//     connection through x can always finish the tree.
//
// The engine keeps only the bookkeeping these two tests read, and keeps
// it the same way on both geometric substrates. The paper's Merge
// stores P[x][y], the in-forest path length of every same-tree pair, in
// an n² matrix; this engine keeps the partial forest itself (adjacency
// lists) and reads in-tree paths with an incremental DFS from the edge
// endpoint (forest.go). Inside source-free trees it also keeps r[x], the
// radius of x within its tree, and the witness order (3-b) scans. The
// source tree needs none of it: (3-a) reads only path(S,u), so a tree
// that joins the source tree contributes its source paths (distS) and
// nothing else. The substrate only decides which edge sequence feeds
// the scan: the complete graph over the distance matrix (dense) or the
// octant edges plus the source star (sparse). No state is O(n²).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
)

// ErrInfeasible is returned when no spanning tree can satisfy the
// requested bounds. With only an upper bound (ε ≥ 0) BKRUS always
// succeeds (the source star is feasible); a lower bound can make the
// instance genuinely infeasible for node-branching spanning trees, as the
// paper notes in §6.
var ErrInfeasible = errors.New("core: no bounded spanning tree exists for the requested bounds")

// Bounds is an absolute path-length window applied to every source-sink
// path. Lower = 0 disables the lower bound; Upper = +Inf disables the
// upper bound (plain Kruskal MST).
type Bounds struct {
	Lower, Upper float64
}

// UpperOnly returns the standard BMST bounds (1+eps)·R for the instance.
func UpperOnly(in *inst.Instance, eps float64) Bounds {
	return Bounds{Lower: 0, Upper: in.Bound(eps)}
}

// LowerUpper returns the §6 clock-routing bounds: every source-sink path
// in [eps1·R, (1+eps2)·R].
func LowerUpper(in *inst.Instance, eps1, eps2 float64) Bounds {
	return Bounds{Lower: eps1 * in.R(), Upper: in.Bound(eps2)}
}

// Validate checks the window is well formed.
func (b Bounds) Validate() error {
	if b.Lower < 0 || math.IsNaN(b.Lower) || math.IsNaN(b.Upper) {
		return fmt.Errorf("core: malformed bounds %+v", b)
	}
	if b.Lower > b.Upper {
		return fmt.Errorf("core: empty bound window [%g, %g]", b.Lower, b.Upper)
	}
	return nil
}

// relTol is the relative tolerance applied to bound comparisons. Bounded
// trees routinely sit exactly on the bound (at ε = 0 the farthest sink's
// direct path equals R by definition), so accumulated floating-point
// noise of a few ulps must not flip feasibility.
const relTol = 1e-9

// WithinUpper reports v ≤ Upper within relative tolerance.
func (b Bounds) WithinUpper(v float64) bool {
	return v <= b.Upper+relTol*math.Max(1, math.Abs(b.Upper))
}

// WithinLower reports v ≥ Lower within relative tolerance (always true
// when no lower bound is set).
func (b Bounds) WithinLower(v float64) bool {
	if b.Lower <= 0 {
		return true
	}
	return v >= b.Lower-relTol*math.Max(1, b.Lower)
}

// FeasibleTree reports whether every source-sink path length of t lies
// within the bounds. Node 0 is the source; only sinks are constrained.
func FeasibleTree(t *graph.Tree, b Bounds) bool {
	d := t.PathLengthsFrom(graph.Source)
	for v := 1; v < t.N; v++ {
		if math.IsInf(d[v], 1) || !b.WithinUpper(d[v]) || !b.WithinLower(d[v]) {
			return false
		}
	}
	return true
}

// BKRUS constructs a bounded path length spanning tree with every
// source-sink path at most (1+eps)·R. eps must be ≥ 0 or +Inf.
func BKRUS(in *inst.Instance, eps float64) (*graph.Tree, error) {
	if eps < 0 {
		return nil, fmt.Errorf("core: negative eps %g", eps)
	}
	return BKRUSBounds(in, UpperOnly(in, eps))
}

// BKRUSLU constructs a spanning tree with every source-sink path in
// [eps1·R, (1+eps2)·R] (§6). Unlike the upper-bound-only case this can
// fail with ErrInfeasible.
func BKRUSLU(in *inst.Instance, eps1, eps2 float64) (*graph.Tree, error) {
	if eps1 < 0 || eps2 < 0 {
		return nil, fmt.Errorf("core: negative eps1/eps2 %g/%g", eps1, eps2)
	}
	return BKRUSBounds(in, LowerUpper(in, eps1, eps2))
}

// BKRUSBounds runs the bounded Kruskal construction for an arbitrary
// absolute bound window.
func BKRUSBounds(in *inst.Instance, b Bounds) (*graph.Tree, error) {
	return BKRUSBuild(context.Background(), in, b, Config{})
}

// Config carries the optional hooks of one BKRUS construction.
type Config struct {
	// Counters receives the construction's event counts. nil keeps the
	// historical opportunistic behaviour: count into the process default
	// registry's core scope when one is installed, otherwise count
	// nothing.
	Counters *Counters
	// Scratch, when non-nil, supplies the working buffers and the
	// lazily sorted edge stream, reused across runs instead of
	// re-allocated. The scratch must not be shared between concurrent
	// constructions.
	Scratch *Scratch
	// Geometry selects the edge sequence the scan reads: dense (the
	// complete graph over the materialized matrix, the historical
	// behaviour) or sparse (octant neighbor graph plus source star over
	// the distance oracle, no O(n²) state). The zero value GeomAuto
	// resolves by instance size (SparseThreshold).
	Geometry Geometry
}

// BKRUSBuild is the full-control entry point behind every BKRUS variant:
// arbitrary bound window, explicit counters, pooled scratch, and a
// context checked periodically inside the edge scan so sweeps and
// servers can enforce deadlines. A cancelled ctx surfaces as ctx.Err()
// within a bounded number of edge examinations.
func BKRUSBuild(ctx context.Context, in *inst.Instance, b Bounds, cfg Config) (*graph.Tree, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	//lint:ignore ctxflow the lazy stream's tail sort is run-to-completion by design (deterministic merge, amortized across the sweep); run(ctx) polls every cancelStride edges around it
	e := newEngine(in, b, cfg)
	return e.run(ctx)
}

// Scratch holds the reusable working state of the BKRUS engine: the
// forest bookkeeping (adjacency, source paths, the witness DFS's
// buffers), the radius and witness-order buffers, the disjoint set, and
// the lazily sorted edge stream (cached per instance and substrate; the
// instance is immutable, so an ε-sweep over one instance shares one
// partially drained stream — the prefix one run sorts is free for the
// next). Every buffer is O(n) but the stream. A zero Scratch is ready
// to use; it grows to the largest instance it has served and is not
// safe for concurrent use.
type Scratch struct {
	r      []float64
	byBase [][]witness
	ds     *graph.DisjointSet

	// Forest bookkeeping: adjacency, source paths, and the witness
	// DFS's distances, epoch stamps and stack.
	adj   [][]graph.Adj
	distS []float64
	dist  []float64
	stamp []uint32
	stack []int32

	stream       *graph.EdgeStream
	streamFor    *inst.Instance
	streamSparse bool
}

// edgeStream returns the cached lazy edge stream for in, rebuilding it
// only when the instance or the substrate changes and rewinding it
// otherwise. In sparse mode the stream draws from the octant neighbor
// edge set; dm is only consulted on the dense path, so a sparse run
// never enumerates the complete graph.
func (s *Scratch) edgeStream(in *inst.Instance, dm graph.Weights, sparse bool) *graph.EdgeStream {
	if s.streamFor != in || s.streamSparse != sparse {
		if sparse {
			s.stream = graph.NewSparseEdgeStream(in.Index(), graph.Source)
		} else {
			s.stream = graph.NewEdgeStream(dm)
		}
		s.streamFor = in
		s.streamSparse = sparse
	} else {
		s.stream.Reset()
	}
	return s.stream
}

// Release drops the scratch's per-instance state — the cached edge
// stream and the instance pointer keying it. Pooled scratches
// (engine.Build's sync.Pool, engine.Sweep teardown) must call this
// before parking, otherwise a long-lived pool entry pins the last
// served instance and its O(n²) edge list forever — the server-style
// reuse leak. What survives is O(n): the forest, radius, witness-order
// and disjoint-set buffers, so reuse across instances of similar size
// still avoids re-allocation, and a parked scratch holds no n² term.
func (s *Scratch) Release() {
	s.stream = nil
	s.streamFor = nil
	s.streamSparse = false
}

// MemBytes estimates the heap bytes currently retained by the scratch:
// the working buffers plus the cached edge stream. Pooled consumers
// with byte budgets (internal/serve) use this to account pinned
// scratches.
func (s *Scratch) MemBytes() int64 {
	b := int64(cap(s.r)+cap(s.distS)+cap(s.dist)) * 8
	b += int64(cap(s.stamp)+cap(s.stack)) * 4
	b += int64(cap(s.byBase)) * 24
	for i := range s.byBase {
		b += int64(cap(s.byBase[i])) * 16
	}
	b += int64(cap(s.adj)) * 24
	for i := range s.adj {
		b += int64(cap(s.adj[i])) * 16
	}
	if s.ds != nil {
		b += s.ds.MemBytes()
	}
	if s.stream != nil {
		b += s.stream.MemBytes()
	}
	return b
}

// attach points the engine's buffers at the scratch, growing and
// resetting them for an n-node instance.
func (s *Scratch) attach(e *engine, n int) {
	if cap(s.adj) < n {
		s.adj = make([][]graph.Adj, n)
	} else {
		s.adj = s.adj[:n]
	}
	for i := range s.adj {
		s.adj[i] = s.adj[i][:0]
	}
	if cap(s.distS) < n {
		s.distS = make([]float64, n)
		s.dist = make([]float64, n)
		s.stamp = make([]uint32, n)
	} else {
		s.distS = s.distS[:n]
		s.dist = s.dist[:n]
		s.stamp = s.stamp[:n]
		clear(s.stamp)
	}
	for i := range s.distS {
		s.distS[i] = math.Inf(1)
	}
	s.distS[graph.Source] = 0
	e.adj, e.distS, e.dist, e.stamp, e.stack = s.adj, s.distS, s.dist, s.stamp, s.stack
	if cap(s.r) < n {
		s.r = make([]float64, n)
	} else {
		s.r = s.r[:n]
		clear(s.r)
	}
	if cap(s.byBase) < n {
		s.byBase = make([][]witness, n)
	} else {
		s.byBase = s.byBase[:n]
	}
	if s.ds == nil || s.ds.Len() != n {
		s.ds = graph.NewDisjointSet(n)
	} else {
		s.ds.Reset()
	}
	e.r, e.byBase, e.ds = s.r, s.byBase, s.ds
}

// engine carries the BKRUS working state for one construction.
type engine struct {
	n       int
	dm      graph.Weights // matrix (dense) or on-demand oracle (sparse)
	b       Bounds
	r       []float64 // radius of each node within its partial tree; kept for source-free trees only
	ds      *graph.DisjointSet
	c       *Counters         // optional instrumentation (nil = off)
	scratch *Scratch          // the buffers: the caller's pooled scratch or a fresh one
	stream  *graph.EdgeStream // candidate edges in nondecreasing weight order
	// byBase[rep] lists the members of the source-free set named rep,
	// each with its cached witnessBase = dist(S,x) + r[x], in ascending
	// order of that base (lower-bound-ineligible members, base = +Inf,
	// sort last). Since radius_M(x) >= r[x] for any tentative merge, a
	// scan in this order can stop at the first member whose base exceeds
	// Upper: no later member can witness condition (3-b) either. The
	// source tree's entry is never read and never refreshed.
	byBase [][]witness
	// distS[x] is the in-tree path length from the source to x, written
	// once when x joins the source tree (+Inf until then) and never
	// changed afterwards.
	distS []float64
	// The partial forest's adjacency and the incremental DFS that reads
	// in-tree paths from it (distances from the fill root, per-fill
	// epoch stamps marking the nodes reached, and the stack). See
	// forest.go.
	adj   [][]graph.Adj
	dist  []float64
	stamp []uint32
	epoch uint32
	stack []int32
}

func newEngine(in *inst.Instance, b Bounds, cfg Config) *engine {
	n := in.N()
	guardVertexIDSpace(n)
	e := &engine{
		n:       n,
		b:       b,
		c:       cfg.Counters,
		scratch: cfg.Scratch,
	}
	sparse := cfg.Geometry.Sparse(n)
	if sparse {
		e.dm = in.Oracle()
	} else {
		e.dm = in.DistMatrix()
	}
	if e.scratch == nil {
		e.scratch = new(Scratch)
	}
	e.scratch.attach(e, n)
	e.stream = e.scratch.edgeStream(in, e.dm, sparse)
	for x := range e.byBase {
		e.byBase[x] = append(e.byBase[x][:0], witness{e.witnessBase(x), x})
	}
	// Opportunistic instrumentation: when no explicit counter set was
	// given and a binary has installed a process-wide registry,
	// accumulate counters into its core scope.
	if e.c == nil {
		if sc := obs.DefaultScope(ScopeName); sc != nil {
			e.c = NewCounters(sc)
		}
	}
	return e
}

// witnessBase returns dist(S,x) + r[x] when x is lower-bound-eligible,
// +Inf otherwise.
func (e *engine) witnessBase(x int) float64 {
	dSx := e.dm.At(graph.Source, x)
	if !e.b.WithinLower(dSx) {
		return math.Inf(1)
	}
	return dSx + e.r[x]
}

// cancelStride is how many candidate edges the scan examines between
// context polls; small enough that cancellation lands promptly even on
// instances where each examination triggers a long witness scan.
const cancelStride = 64

func (e *engine) run(ctx context.Context) (*graph.Tree, error) {
	chk := cancel.New(ctx, cancelStride)
	t := graph.NewTree(e.n)
	batches0, fallbacks0 := e.stream.Batches(), e.stream.Fallbacks()
	defer func() {
		if e.c != nil {
			e.c.StreamBatches.Add(int64(e.stream.Batches() - batches0))
			e.c.StreamFallbacks.Add(int64(e.stream.Fallbacks() - fallbacks0))
		}
		// The DFS stack grows by append; hand the grown backing array
		// back to the scratch so the next run starts at steady state.
		e.scratch.stack = e.stack
	}()
	for len(t.Edges) < e.n-1 {
		ed, ok := e.stream.Next() //lint:ignore allocloop the tail sort allocates once when the stream first reaches it, amortized over every later iteration (lazy-stream contract, pinned by BenchmarkBKRUSStream)
		if !ok {
			break
		}
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		if e.c != nil {
			e.c.EdgesExamined.Inc()
		}
		if e.ds.Same(ed.U, ed.V) {
			if e.c != nil {
				e.c.CycleRejections.Inc()
			}
			continue // condition (2): cycle edge
		}
		if (ed.U == graph.Source || ed.V == graph.Source) && !e.b.WithinLower(ed.W) {
			if e.c != nil {
				e.c.LemmaRejections.Inc()
			}
			continue // Lemma 6.1: a direct source edge below the lower bound
		}
		if !e.feasible(ed) {
			if e.c != nil {
				e.c.BoundRejections.Inc()
			}
			continue // condition (3); Lemma 3.1 says never reconsider
		}
		e.accept(ed)
		t.Edges = append(t.Edges, ed)
		if e.c != nil {
			e.c.Merges.Inc()
		}
	}
	if len(t.Edges) != e.n-1 {
		return nil, ErrInfeasible
	}
	//lint:ignore ctxflow post-construction O(n) feasibility check; cancellation during the build is honored by the per-edge stride poll above
	if !FeasibleTree(t, e.b) {
		// Defensive: the feasibility tests guarantee this for upper-only
		// bounds; a lower bound can still be violated by nodes that ended
		// up closer than Lower through multi-hop paths.
		return nil, ErrInfeasible
	}
	return t, nil
}

// feasible applies condition (3-a) or (3-b) to candidate edge ed.
func (e *engine) feasible(ed graph.Edge) bool {
	switch {
	case e.ds.Same(graph.Source, ed.U):
		return e.sourceMergeOK(ed.U, ed.V, ed.W)
	case e.ds.Same(graph.Source, ed.V):
		return e.sourceMergeOK(ed.V, ed.U, ed.W)
	default:
		return e.witnessExists(ed)
	}
}

// sourceMergeOK checks condition (3-a): u lies in the source tree, v in a
// source-free tree. All nodes of t_v acquire fixed source paths
// path(S,u) + w + path(v,y); the farthest is bounded via radius(v), the
// nearest is v itself.
func (e *engine) sourceMergeOK(u, v int, w float64) bool {
	base := e.distS[u] + w
	if !e.b.WithinUpper(base + e.r[v]) {
		return false
	}
	// v itself is the nearest newly attached sink; it must clear the
	// lower bound.
	return e.b.WithinLower(base)
}

// witnessExists checks condition (3-b): neither tree holds the source, so
// the merged tree needs a feasible node x with dist(S,x)+radius_M(x) ≤
// Upper (and dist(S,x) ≥ Lower when a lower bound is active), where
// radius_M is x's radius in the would-be merged tree, computable from the
// stored paths and radii without performing the merge. Side v is
// scanned only when side u found no witness.
func (e *engine) witnessExists(ed graph.Edge) bool {
	// Scans are accumulated locally and flushed once per call: the
	// witness search is the engine's hot loop, and one atomic add per
	// call keeps instrumented runs within noise of uninstrumented ones.
	scans := int64(0)
	ok := e.scanSide(ed.U, ed.V, ed.W, &scans) || e.scanSide(ed.V, ed.U, ed.W, &scans)
	if e.c != nil && scans > 0 {
		e.c.WitnessScans.Add(scans)
	}
	return ok
}

// scanSide scans u's tree in witness order for a witness of the
// tentative merge with v's tree across an edge of weight w. The base
// test comes before the path read, so the scan stops without touching
// the paths of the member that ends it; a member too far from u to
// witness (tooFar) is passed over without reading its path either.
func (e *engine) scanSide(u, v int, w float64, scans *int64) bool {
	e.startFill(u)
	rv := e.r[v]
	for _, m := range e.byBase[e.ds.Find(u)] {
		*scans++
		if !e.b.WithinUpper(m.base) {
			break // sorted by base: no later member can witness either
		}
		x := m.x
		if e.tooFar(u, x, w, rv) {
			continue
		}
		rM := math.Max(e.r[x], e.pathFrom(u, x)+w+rv)
		if e.witnessOK(x, rM) {
			return true
		}
	}
	return false
}

func (e *engine) witnessOK(x int, radiusM float64) bool {
	dSx := e.dm.At(graph.Source, x)
	return e.b.WithinUpper(dSx+radiusM) && e.b.WithinLower(dSx)
}

// pathSlack is the relative margin tooFar takes off dist(u,x) before
// using it as a lower bound on the float path(u,x). A float sum of k
// edge weights is within about (k+3)·2⁻⁵³ of the real path length, and
// newEngine caps k below 2³¹, so the rounding stays under 3e-7.
const pathSlack = 1e-6

// tooFar reports that x cannot witness the merge across (u,v): it
// evaluates witnessOK's upper test with the metric distance dist(u,x)
// in place of the in-tree path(u,x), grouped the same way. No tree path
// is shorter than the straight line, and float addition is weakly
// monotone, so when this lower bound already fails the bound the exact
// test fails too, and the scan moves on without the path read, that is
// without advancing the DFS to x. Witnesses and counters are unchanged.
func (e *engine) tooFar(u, x int, w, rv float64) bool {
	low := e.dm.At(u, x)*(1-pathSlack) + w + rv
	return !e.b.WithinUpper(e.dm.At(graph.Source, x) + low)
}

// pathFrom returns path(u,x) for a member x of u's tree, advancing the
// current fill from u (see startFill) just far enough to reach x.
func (e *engine) pathFrom(u, x int) float64 {
	e.fillUntil(x)
	return e.dist[x]
}

// pathsFrom returns path(f,·), valid over the members of f's tree: a
// complete fill from f. The result is the fill buffer, overwritten by
// the next fill.
func (e *engine) pathsFrom(f int) []float64 {
	e.startFill(f)
	e.fillUntil(-1)
	return e.dist
}

// accept performs the paper's Merge routine for the accepted edge ed and
// unions the two trees. Only the state a later feasibility test reads
// is updated: when one side holds the source, the other side's source
// paths; otherwise both sides' paths and radii and the merged tree's
// witness order.
func (e *engine) accept(ed graph.Edge) {
	a, b := e.ds.Find(ed.U), e.ds.Find(ed.V)
	free := false
	switch {
	case e.ds.Same(graph.Source, a):
		e.joinSource(ed.U, ed.V, ed.W)
	case e.ds.Same(graph.Source, b):
		e.joinSourceFar(ed.U, ed.V, ed.W)
	default:
		e.mergeFree(ed.U, ed.V, ed.W)
		free = true
	}
	e.adj[ed.U] = append(e.adj[ed.U], graph.Adj{To: ed.V, W: ed.W})
	e.adj[ed.V] = append(e.adj[ed.V], graph.Adj{To: ed.U, W: ed.W})
	e.ds.Union(ed.U, ed.V)
	if free {
		e.refreshByBase(a, b)
	}
}

// joinSource records the source paths of v's tree as it joins the
// source tree through u: distS[y] = (distS[u] + w) + path(v,y).
func (e *engine) joinSource(u, v int, w float64) {
	d := e.pathsFrom(v)
	base := e.distS[u] + w
	for _, y := range e.ds.Members(v) {
		e.distS[y] = base + d[y]
	}
}

// joinSourceFar is joinSource with the source tree on the far side of
// the edge: u's tree joins through v, grouped as
// (path(x,u) + w) + distS[v].
func (e *engine) joinSourceFar(u, v int, w float64) {
	d := e.pathsFrom(u)
	dv := e.distS[v]
	for _, x := range e.ds.Members(u) {
		e.distS[x] = d[x] + w + dv
	}
}

// mergeFree joins two source-free trees and raises the radii in closed
// form — (path(x,u) + w) + r[v] for the near side, (r[u] + w) +
// path(v,y) for the far side. Float addition is weakly monotone, so
// these equal the maxima over the cross pairs' paths bit for bit. Must
// run before the disjoint-set union so the two member lists are still
// separate.
func (e *engine) mergeFree(u, v int, w float64) {
	mu := e.ds.Members(u)
	mv := e.ds.Members(v)
	ru, rv := e.r[u], e.r[v]
	du := e.pathsFrom(u)
	for _, x := range mu {
		if nr := du[x] + w + rv; nr > e.r[x] {
			e.r[x] = nr
		}
	}
	dv := e.pathsFrom(v)
	baseU := ru + w
	for _, y := range mv {
		if nr := baseU + dv[y]; nr > e.r[y] {
			e.r[y] = nr
		}
	}
}

// witness is one entry of a witness order: a member x and its
// witnessBase, cached when the order was last sorted. Radii change only
// in merges, and every merge of two source-free trees re-sorts, so the
// cached base stays current for as long as the order is read.
type witness struct {
	base float64
	x    int
}

// refreshByBase writes the witness order of the source-free set just
// merged from the sets named a and b, called after Union (radii changed
// during the merge). The order goes into whichever of the two sets'
// buffers has the larger capacity, and the absorbed name keeps the
// other. Buffers so follow the large sets rather than the names: tied
// to a name, a pooled scratch's buffer would grow over many instances
// to the largest set that name ever stood for, on every name. Each
// entry carries its base, so the comparator reads two adjacent floats;
// the bases are never NaN, so cmp.Compare orders them as < does.
// Members with equal bases keep the order pdqsort gives them, and
// witness_scans depends on it (TestGoldenCounters).
func (e *engine) refreshByBase(a, b int) {
	rep, gone := a, b
	if e.ds.Find(a) != a {
		rep, gone = b, a
	}
	order, spare := e.byBase[rep], e.byBase[gone]
	if cap(spare) > cap(order) {
		order, spare = spare, order
	}
	order = order[:0]
	for _, x := range e.ds.Members(rep) {
		order = append(order, witness{e.witnessBase(x), x})
	}
	slices.SortFunc(order, func(p, q witness) int {
		return cmp.Compare(p.base, q.base)
	})
	e.byBase[rep], e.byBase[gone] = order, spare[:0]
}
