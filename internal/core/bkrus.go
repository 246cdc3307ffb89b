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
// The engine maintains the paper's bookkeeping: P[x][y], the in-forest
// path length between every pair of nodes in the same partial tree, and
// r[x], the radius of x within its partial tree. A merge writes each
// cross-pair entry exactly once, so all merges together cost O(V²);
// feasibility scans dominate at O(EV).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

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
	// Scratch, when non-nil, supplies the O(n²) working buffers and the
	// lazily sorted edge stream, reused across runs instead of
	// re-allocated. The scratch must not be shared between concurrent
	// constructions.
	Scratch *Scratch
	// Geometry selects the geometric substrate: dense (materialized
	// matrix + complete edge list, the historical behaviour) or sparse
	// (distance oracle + octant neighbor graph, no O(n²) state). The
	// zero value GeomAuto resolves by instance size (SparseThreshold).
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
// dense P-matrix or the sparse forest bookkeeping (whichever modes it
// has served), the radius and witness-order buffers, the disjoint set,
// and the lazily sorted edge stream (cached per instance and mode; the
// instance is immutable, so an ε-sweep over one instance shares one
// partially drained stream — the prefix one run sorts is free for the
// next). A zero Scratch is ready to use; it grows to the largest
// instance it has served and is not safe for concurrent use.
type Scratch struct {
	p       []float64
	r       []float64
	baseKey []float64
	byBase  [][]int
	ds      *graph.DisjointSet

	// Sparse-mode buffers: forest adjacency, source paths, DFS path
	// scratch and DFS stacks. Untouched by dense constructions.
	adj       [][]graph.Adj
	distS     []float64
	pathU     []float64
	pathV     []float64
	stackNode []int32
	stackPar  []int32

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
// reuse leak. The geometry-independent buffers (P-matrix, radii,
// disjoint set) survive, so reuse across instances of similar size
// still avoids re-allocation.
func (s *Scratch) Release() {
	s.stream = nil
	s.streamFor = nil
	s.streamSparse = false
}

// MemBytes estimates the heap bytes currently retained by the scratch:
// every mode's working buffers plus the cached edge stream. Pooled
// consumers with byte budgets (internal/serve) use this to account
// pinned scratches.
func (s *Scratch) MemBytes() int64 {
	b := int64(cap(s.p)+cap(s.r)+cap(s.baseKey)+cap(s.distS)+cap(s.pathU)+cap(s.pathV)) * 8
	b += int64(cap(s.stackNode)+cap(s.stackPar)) * 4
	b += int64(cap(s.byBase)) * 24
	for i := range s.byBase {
		b += int64(cap(s.byBase[i])) * 8
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
// resetting them for an n-node instance. Only the buffers of the
// engine's substrate are grown: a sparse engine never touches the n²
// P-matrix, which is the point of the mode.
func (s *Scratch) attach(e *engine, n int) {
	if e.sparse {
		s.attachSparse(e, n)
	} else {
		s.attachDense(e, n)
	}
	s.attachCommon(e, n)
}

func (s *Scratch) attachDense(e *engine, n int) {
	if cap(s.p) < n*n {
		s.p = make([]float64, n*n)
	} else {
		s.p = s.p[:n*n]
		for i := range s.p {
			s.p[i] = 0
		}
	}
	e.p = s.p
}

func (s *Scratch) attachSparse(e *engine, n int) {
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
		s.pathU = make([]float64, n)
		s.pathV = make([]float64, n)
	} else {
		s.distS = s.distS[:n]
		s.pathU = s.pathU[:n]
		s.pathV = s.pathV[:n]
	}
	for i := range s.distS {
		s.distS[i] = math.Inf(1)
	}
	s.distS[graph.Source] = 0
	e.adj, e.distS, e.pathU, e.pathV = s.adj, s.distS, s.pathU, s.pathV
	e.stackNode, e.stackPar = s.stackNode, s.stackPar
}

func (s *Scratch) attachCommon(e *engine, n int) {
	if cap(s.r) < n {
		s.r = make([]float64, n)
	} else {
		s.r = s.r[:n]
		for i := range s.r {
			s.r[i] = 0
		}
	}
	if cap(s.baseKey) < n {
		s.baseKey = make([]float64, n)
	} else {
		s.baseKey = s.baseKey[:n]
	}
	if cap(s.byBase) < n {
		s.byBase = make([][]int, n)
	} else {
		s.byBase = s.byBase[:n]
	}
	for x := 0; x < n; x++ {
		s.byBase[x] = append(s.byBase[x][:0], x)
	}
	if s.ds == nil || s.ds.Len() != n {
		s.ds = graph.NewDisjointSet(n)
	} else {
		s.ds.Reset()
	}
	e.r, e.baseKey, e.byBase, e.ds = s.r, s.baseKey, s.byBase, s.ds
}

// engine carries the BKRUS working state for one construction.
type engine struct {
	n       int
	sparse  bool          // substrate: oracle + neighbor graph vs matrix + complete graph
	dm      graph.Weights // matrix (dense) or on-demand oracle (sparse)
	b       Bounds
	p       []float64 // dense only — P[x][y] flattened: in-forest path lengths, 0 across trees
	r       []float64 // radius of each node within its partial tree
	baseKey []float64 // per-refresh witnessBase cache, indexed by node id
	ds      *graph.DisjointSet
	c       *Counters         // optional instrumentation (nil = off)
	scratch *Scratch          // optional pooled buffers (nil = own allocations)
	stream  *graph.EdgeStream // candidate edges in nondecreasing weight order
	// byBase[rep] lists the members of the set named rep in ascending
	// order of witnessBase = dist(S,x) + r[x] (lower-bound-ineligible
	// members, base = +Inf, sort last). Since radius_M(x) >= r[x] for any
	// tentative merge, a scan in this order can stop at the first member
	// whose base exceeds Upper: no later member can witness condition
	// (3-b) either.
	byBase [][]int
	// Sparse-substrate state (nil on the dense path): the partial
	// forest's adjacency, the immutable-once-set source paths, and the
	// DFS scratch that replaces P-matrix rows. See sparse.go.
	adj          [][]graph.Adj
	distS        []float64
	pathU, pathV []float64
	stackNode    []int32
	stackPar     []int32
}

func newEngine(in *inst.Instance, b Bounds, cfg Config) *engine {
	n := in.N()
	guardVertexIDSpace(n)
	e := &engine{
		n:       n,
		sparse:  cfg.Geometry.Sparse(n),
		b:       b,
		c:       cfg.Counters,
		scratch: cfg.Scratch,
	}
	if e.sparse {
		e.dm = in.Oracle()
	} else {
		e.dm = in.DistMatrix()
	}
	if e.scratch != nil {
		e.scratch.attach(e, n)
		e.stream = e.scratch.edgeStream(in, e.dm, e.sparse)
	} else {
		if e.sparse {
			e.adj = make([][]graph.Adj, n)
			e.distS = make([]float64, n)
			for i := range e.distS {
				e.distS[i] = math.Inf(1)
			}
			e.distS[graph.Source] = 0
			e.pathU = make([]float64, n)
			e.pathV = make([]float64, n)
			e.stream = graph.NewSparseEdgeStream(in.Index(), graph.Source)
		} else {
			e.p = make([]float64, n*n)
			e.stream = graph.NewEdgeStream(e.dm)
		}
		e.r = make([]float64, n)
		e.baseKey = make([]float64, n)
		e.ds = graph.NewDisjointSet(n)
		e.byBase = make([][]int, n)
		for x := 0; x < n; x++ {
			e.byBase[x] = []int{x}
		}
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

func (e *engine) path(x, y int) float64 { return e.p[x*e.n+y] }

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
		// DFS stacks grow by append; hand the grown backing arrays back
		// to the pooled scratch so the next run starts at steady state.
		if e.scratch != nil && e.sparse {
			e.scratch.stackNode, e.scratch.stackPar = e.stackNode, e.stackPar
		}
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
		e.merge(ed)
		e.ds.Union(ed.U, ed.V)
		e.refreshByBase(ed.U)
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
	srcU := e.ds.Same(graph.Source, ed.U)
	srcV := e.ds.Same(graph.Source, ed.V)
	switch {
	case srcU:
		return e.sourceMergeOK(ed.U, ed.V, ed.W)
	case srcV:
		return e.sourceMergeOK(ed.V, ed.U, ed.W)
	default:
		return e.witnessExists(ed)
	}
}

// srcPath returns the in-tree path length from the source to u, valid
// only while u is in the source tree: the dense P row or the sparse
// write-once distS entry.
func (e *engine) srcPath(u int) float64 {
	if e.sparse {
		return e.distS[u]
	}
	return e.path(graph.Source, u)
}

// sourceMergeOK checks condition (3-a): u lies in the source tree, v in a
// source-free tree. All nodes of t_v acquire fixed source paths
// path(S,u) + w + path(v,y); the farthest is bounded via radius(v), the
// nearest is v itself.
func (e *engine) sourceMergeOK(u, v int, w float64) bool {
	base := e.srcPath(u) + w
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
// stored P and r without performing the merge.
func (e *engine) witnessExists(ed graph.Edge) bool {
	if e.sparse {
		return e.witnessExistsSparse(ed)
	}
	u, v, w := ed.U, ed.V, ed.W
	// Scans are accumulated locally and flushed once per call: the
	// witness search is the engine's hot loop, and one atomic add per
	// call keeps instrumented runs within noise of uninstrumented ones.
	scans := int64(0)
	defer func() {
		if e.c != nil && scans > 0 {
			e.c.WitnessScans.Add(scans)
		}
	}()
	for _, x := range e.byBase[e.ds.Find(u)] {
		scans++
		if !e.b.WithinUpper(e.witnessBase(x)) {
			break // sorted by base: no later member can witness either
		}
		rM := math.Max(e.r[x], e.path(x, u)+w+e.r[v])
		if e.witnessOK(x, rM) {
			return true
		}
	}
	for _, x := range e.byBase[e.ds.Find(v)] {
		scans++
		if !e.b.WithinUpper(e.witnessBase(x)) {
			break
		}
		rM := math.Max(e.r[x], e.path(x, v)+w+e.r[u])
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

// merge performs the paper's Merge routine: fill in the cross-tree P
// entries through the new edge and refresh the radii of both sides. Must
// run before the disjoint-set union so the two member lists are still
// separate.
func (e *engine) merge(ed graph.Edge) {
	if e.sparse {
		e.mergeSparse(ed)
		return
	}
	u, v, w := ed.U, ed.V, ed.W
	mu := e.ds.Members(u)
	mv := e.ds.Members(v)
	n := e.n
	for _, x := range mu {
		px := e.p[x*n+u] + w // path(x,u) + dist(u,v)
		rowMax := e.r[x]
		for _, y := range mv {
			pxy := px + e.p[v*n+y]
			e.p[x*n+y] = pxy
			e.p[y*n+x] = pxy
			if pxy > rowMax {
				rowMax = pxy
			}
		}
		e.r[x] = rowMax
	}
	for _, y := range mv {
		colMax := e.r[y]
		for _, x := range mu {
			if pxy := e.p[x*n+y]; pxy > colMax {
				colMax = pxy
			}
		}
		e.r[y] = colMax
	}
}

// refreshByBase re-sorts the merged set's members by witness base,
// called after Union (radii changed during the merge). The merged list
// is copied into the representative's existing byBase buffer, so a
// pooled engine stops growing once the buffers reach steady state.
// witnessBase is evaluated once per member into the baseKey cache
// before sorting — the comparator then reads two cached floats instead
// of recomputing dist+radius lookups O(k log k) times. Every pairwise
// comparison returns the same boolean as the uncached comparator would
// (the keys are the very values it recomputed), so sort.Slice produces
// the identical permutation.
func (e *engine) refreshByBase(member int) {
	rep := e.ds.Find(member)
	members := e.byBase[rep][:0]
	members = append(members, e.ds.Members(rep)...)
	for _, x := range members {
		e.baseKey[x] = e.witnessBase(x)
	}
	sort.Slice(members, func(i, j int) bool {
		return e.baseKey[members[i]] < e.baseKey[members[j]]
	})
	e.byBase[rep] = members
}
