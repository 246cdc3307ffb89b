package steiner

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
)

// ErrInfeasible is returned when no bounded Steiner tree could be built
// within the requested bound.
var ErrInfeasible = errors.New("steiner: could not build a Steiner tree within the bound")

// ErrNotPlanar is returned by the planar construction when the net
// cannot be completed without crossing existing wires.
var ErrNotPlanar = errors.New("steiner: no planar completion exists")

// SteinerTree is a rectilinear Steiner tree over a Hanan grid: a set of
// unit grid segments connecting the source terminal to every sink.
type SteinerTree struct {
	grid  *Grid
	edges []graph.Edge // between adjacent grid node ids
}

// Grid returns the Hanan grid the tree is embedded in.
func (st *SteinerTree) Grid() *Grid { return st.grid }

// Edges returns the grid segments of the tree (shared slice; do not
// modify).
func (st *SteinerTree) Edges() []graph.Edge { return st.edges }

// Cost returns the total wirelength of the tree.
func (st *SteinerTree) Cost() float64 {
	var c float64
	for _, e := range st.edges {
		c += e.W
	}
	return c
}

// PathLengths returns the tree path length from the source to every
// instance terminal (index 0, the source, is 0). Unreached terminals get
// +Inf.
func (st *SteinerTree) PathLengths() []float64 {
	dist := st.distancesFromSource()
	out := make([]float64, st.grid.NumTerminals())
	for t := range out {
		out[t] = dist[st.grid.Terminal(t)]
	}
	return out
}

// Radius returns the maximum source-sink path length.
func (st *SteinerTree) Radius() float64 {
	var r float64
	for _, d := range st.PathLengths() {
		if d > r {
			r = d
		}
	}
	return r
}

// Validate checks structural sanity: the edge set is acyclic and connects
// every terminal to the source.
func (st *SteinerTree) Validate() error {
	nodes := map[int]bool{}
	ds := graph.NewDisjointSet(st.grid.Size())
	for _, e := range st.edges {
		nodes[e.U] = true
		nodes[e.V] = true
		if !ds.Union(e.U, e.V) {
			return fmt.Errorf("steiner: cycle at edge %v", e)
		}
	}
	if len(st.edges) != len(nodes)-1 && len(nodes) > 0 {
		return fmt.Errorf("steiner: %d edges over %d nodes", len(st.edges), len(nodes))
	}
	src := st.grid.Terminal(0)
	for t := 1; t < st.grid.NumTerminals(); t++ {
		if !ds.Same(src, st.grid.Terminal(t)) {
			return fmt.Errorf("steiner: terminal %d not connected to source", t)
		}
	}
	return nil
}

func (st *SteinerTree) distancesFromSource() map[int]float64 {
	adj := map[int][]graph.Adj{}
	for _, e := range st.edges {
		adj[e.U] = append(adj[e.U], graph.Adj{To: e.V, W: e.W})
		adj[e.V] = append(adj[e.V], graph.Adj{To: e.U, W: e.W})
	}
	src := st.grid.Terminal(0)
	dist := map[int]float64{src: 0}
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range adj[u] {
			if _, ok := dist[a.To]; !ok {
				dist[a.To] = dist[u] + a.W
				stack = append(stack, a.To)
			}
		}
	}
	full := make(map[int]float64, len(dist))
	for t := 0; t < st.grid.NumTerminals(); t++ {
		id := st.grid.Terminal(t)
		if d, ok := dist[id]; ok {
			full[id] = d
		} else {
			full[id] = math.Inf(1)
		}
	}
	for id, d := range dist {
		full[id] = d
	}
	return full
}

// pairItem is a candidate connection between two forest nodes.
type pairItem struct {
	d    float64
	a, b int
}

type pairHeap []pairItem

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	//lint:ignore floatcmp heap ordering must stay an exact strict weak order; epsilon ties would corrupt the heap invariant
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	if h[i].a != h[j].a {
		return h[i].a < h[j].a
	}
	return h[i].b < h[j].b
}
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pairItem)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func fmtErrNegativeEps(eps float64) error {
	return fmt.Errorf("steiner: negative eps %g", eps)
}

func fmtErrMetric(m geom.Metric) error {
	return fmt.Errorf("steiner: BKST requires the Manhattan metric, got %v", m)
}

// BKST constructs a bounded path length rectilinear Steiner tree with
// every source-sink path at most (1+eps)·R. The instance must use the
// Manhattan metric. eps may be +Inf for the unconstrained Steiner
// heuristic. When a default obs registry is installed the construction
// records into its "steiner" scope.
func BKST(in *inst.Instance, eps float64) (*SteinerTree, error) {
	if eps < 0 {
		return nil, fmtErrNegativeEps(eps)
	}
	return BKSTBuild(context.Background(), in, core.UpperOnly(in, eps), Config{})
}

// Config carries the optional knobs of one BKST construction.
type Config struct {
	// Counters receives the construction's metrics. nil keeps the
	// historical opportunistic behaviour: record into the process default
	// registry's steiner scope when one is installed, otherwise nothing.
	Counters *Counters
	// Planar forbids layered jumper wires; walled-in terminals surface as
	// ErrNotPlanar.
	Planar bool
}

// BKSTBuild is the full-control entry point behind every BKST variant:
// arbitrary bound window (Lower = 0 disables the §6 lower bound),
// planarity, explicit counters, and a context polled periodically inside
// the candidate-pair loop so a cancelled ctx surfaces as ctx.Err()
// within a bounded number of heap pops.
func BKSTBuild(ctx context.Context, in *inst.Instance, bounds core.Bounds, cfg Config) (*SteinerTree, error) {
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	if in.Metric() != geom.Manhattan {
		return nil, fmtErrMetric(in.Metric())
	}
	//lint:ignore ctxflow heap seeding is O(terminals^2) before the first pop; run(ctx) polls from the first candidate on and BKST terminal counts are small by design
	b := newBuilder(in, bounds.Upper)
	b.lower = bounds.Lower
	b.planar = cfg.Planar
	if cfg.Counters != nil {
		b.c = cfg.Counters
		b.c.publishGrid(b.g)
	}
	if err := b.run(ctx); err != nil {
		return nil, err
	}
	if b.notPlanar {
		return nil, ErrNotPlanar
	}
	st := &SteinerTree{grid: b.g, edges: b.edges}
	//lint:ignore ctxflow post-construction structural check, same contract as the bound check below
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("steiner: internal error: %w", err)
	}
	//lint:ignore ctxpoll post-construction O(terminals) bound check; cancellation mid-build is already honored inside run(ctx) and the check itself is pinned by TestBKSTZeroEpsRespectsBound and TestBKSTLUBoundsRespected
	for t, d := range st.PathLengths() { //lint:ignore ctxflow post-construction O(terminals) path-length fold pinned by TestBKSTZeroEpsRespectsBound
		if t == 0 {
			continue
		}
		if !b.within(d) || !b.aboveLower(d) {
			return nil, ErrInfeasible
		}
	}
	return st, nil
}

// builder carries the BKST working state.
type builder struct {
	g          *Grid
	bound      float64
	lower      float64 // lower path bound for terminal sinks (0 = none)
	planar     bool    // forbid layered jumpers (wire crossings)
	notPlanar  bool    // set when a planar completion failed
	ds         *graph.DisjointSet
	inForest   []bool
	isTerminal []bool
	forest     []int // all forest node ids
	p          map[graph.Key]float64
	r          []float64
	h          pairHeap
	edges      []graph.Edge
	srcGrid    int
	c          *Counters // optional instrumentation (nil = off)

	// Maze-route scratch, grow-guarded: fallbackConnect runs mazeRoute
	// once per detached terminal, so the O(grid) working arrays are
	// reused across calls instead of reallocated per iteration.
	mzDist []float64
	mzFrom []int
	mzDone []bool
}

func newBuilder(in *inst.Instance, bound float64) *builder {
	g := NewGrid(in)
	b := &builder{
		g:          g,
		bound:      bound,
		ds:         graph.NewDisjointSet(g.Size()),
		inForest:   make([]bool, g.Size()),
		isTerminal: make([]bool, g.Size()),
		p:          make(map[graph.Key]float64),
		r:          make([]float64, g.Size()),
		srcGrid:    g.Terminal(0),
	}
	for t := 0; t < g.NumTerminals(); t++ {
		id := g.Terminal(t)
		b.isTerminal[id] = true
		if !b.inForest[id] {
			b.inForest[id] = true
			b.forest = append(b.forest, id)
		}
	}
	b.seedPairs()
	// Opportunistic instrumentation, overridable by Config.Counters.
	if sc := obs.DefaultScope(ScopeName); sc != nil {
		b.c = NewCounters(sc)
		b.c.publishGrid(g)
	}
	return b
}

// seedPairs fills the pair heap with every forest-pair candidate and
// its metric distance, in ascending (i, j) order of the forest list.
func (b *builder) seedPairs() {
	for i, a := range b.forest {
		for _, c := range b.forest[i+1:] {
			heap.Push(&b.h, pairItem{a: a, b: c, d: b.g.Dist(a, c)})
		}
	}
}

// pathLen returns the in-forest path length between two nodes of the
// same partial tree.
func (b *builder) pathLen(x, y int) float64 {
	if x == y {
		return 0
	}
	return b.p[graph.EdgeKey(x, y)]
}

func (b *builder) complete() bool {
	srcRep := b.ds.Find(b.srcGrid)
	for t := 1; t < b.g.NumTerminals(); t++ {
		if b.ds.Find(b.g.Terminal(t)) != srcRep {
			return false
		}
	}
	return true
}

func (b *builder) run(ctx context.Context) error {
	chk := cancel.New(ctx, 64)
	for b.h.Len() > 0 {
		if err := chk.Tick(); err != nil {
			return err
		}
		it := heap.Pop(&b.h).(pairItem)
		if b.c != nil {
			b.c.CandidatesExamined.Inc()
		}
		if b.ds.Same(it.a, it.b) {
			continue
		}
		if !b.feasible(it.a, it.b, it.d) {
			if b.c != nil {
				b.c.BoundRejections.Inc()
			}
			continue
		}
		if !b.tryEmbed(it.a, it.b) {
			continue
		}
		if b.complete() {
			return nil
		}
	}
	// Fallback: the heap ran dry with terminals still detached (possible
	// when every candidate embedding collided). Connect each remaining
	// tree through its best witness node — the same node the feasibility
	// invariant guarantees can carry a direct source connection.
	for t := 1; t < b.g.NumTerminals(); t++ {
		if err := chk.Err(); err != nil {
			return err
		}
		id := b.g.Terminal(t)
		if !b.ds.Same(b.srcGrid, id) {
			b.fallbackConnect(id)
		}
	}
	return nil
}

// within reports v <= bound with the same relative tolerance the core
// engine uses (trees routinely sit exactly on the bound).
func (b *builder) within(v float64) bool {
	return v <= b.bound+1e-9*math.Max(1, math.Abs(b.bound))
}

// aboveLower reports v >= lower within tolerance (always true when no
// lower bound is set).
func (b *builder) aboveLower(v float64) bool {
	if b.lower <= 0 {
		return true
	}
	return v >= b.lower-1e-9*math.Max(1, b.lower)
}

// lowerOKAfterSourceMerge checks the §6 lower bound for a merge into the
// source tree: every terminal sink of the attaching tree acquires path
// base + pathLen(att, y), which must clear the lower bound (Steiner
// points are exempt).
func (b *builder) lowerOKAfterSourceMerge(base float64, att int) bool {
	if b.lower <= 0 {
		return true
	}
	for _, y := range b.ds.Members(att) {
		if b.isTerminal[y] && !b.aboveLower(base+b.pathLen(att, y)) {
			return false
		}
	}
	return true
}

// feasible applies the BKRUS conditions (3-a)/(3-b) over forest path
// lengths.
func (b *builder) feasible(a, c int, d float64) bool {
	srcRep := b.ds.Find(b.srcGrid)
	switch {
	case b.ds.Find(a) == srcRep:
		base := b.pathLen(b.srcGrid, a) + d
		return b.within(base+b.r[c]) && b.lowerOKAfterSourceMerge(base, c)
	case b.ds.Find(c) == srcRep:
		base := b.pathLen(b.srcGrid, c) + d
		return b.within(base+b.r[a]) && b.lowerOKAfterSourceMerge(base, a)
	default:
		for _, x := range b.ds.Members(a) {
			rM := math.Max(b.r[x], b.pathLen(x, a)+d+b.r[c])
			if b.within(b.g.DistToSource(x)+rM) && b.aboveLower(b.g.DistToSource(x)) {
				return true
			}
		}
		for _, x := range b.ds.Members(c) {
			rM := math.Max(b.r[x], b.pathLen(x, c)+d+b.r[a])
			if b.within(b.g.DistToSource(x)+rM) && b.aboveLower(b.g.DistToSource(x)) {
				return true
			}
		}
		return false
	}
}

// firstCollisionIdx returns the index of the first interior path node
// already in the forest, or -1 if the interior is clean.
func (b *builder) firstCollisionIdx(path []int) int {
	for i := 1; i < len(path)-1; i++ {
		if b.inForest[path[i]] {
			return i
		}
	}
	return -1
}

// lastCollisionIdx returns the index of the last interior path node
// already in the forest, or -1.
func (b *builder) lastCollisionIdx(path []int) int {
	for i := len(path) - 2; i >= 1; i-- {
		if b.inForest[path[i]] {
			return i
		}
	}
	return -1
}

// tryEmbed embeds one of the L-shaped paths between a and b, preferring
// the corner closer to the source, skipping paths whose interior
// collides with existing forest nodes (which would create cycles or
// uncontrolled three-way merges). When both L-paths collide, the
// connection is re-seeded into the heap as sub-pairs ending at the first
// collision from each side — the true attach points — so it is
// re-examined with a proper feasibility test instead of being lost.
func (b *builder) tryEmbed(a, c int) bool {
	paths := b.g.LPaths(a, c)
	for _, path := range paths {
		if b.firstCollisionIdx(path) == -1 {
			b.embed(path)
			return true
		}
	}
	if b.c != nil {
		b.c.EmbedCollisions.Inc()
	}
	for _, path := range paths {
		if i := b.firstCollisionIdx(path); i != -1 {
			if z := path[i]; !b.ds.Same(a, z) {
				heap.Push(&b.h, pairItem{d: b.g.Dist(a, z), a: a, b: z})
			}
			j := b.lastCollisionIdx(path)
			//lint:ignore indexbound firstCollisionIdx != -1 implies lastCollisionIdx != -1 (both scan the same interior; pinned by TestCollisionIdxPaired)
			if z := path[j]; !b.ds.Same(c, z) {
				heap.Push(&b.h, pairItem{d: b.g.Dist(z, c), a: z, b: c})
			}
		}
	}
	return false
}

// embed commits a collision-free path: every interior node joins the
// forest as a new sink, partial trees are merged node by node with the
// BKRUS Merge bookkeeping, and new candidate pairs are seeded.
func (b *builder) embed(path []int) {
	var fresh []int
	prev := path[0]
	for _, q := range path[1:] {
		if !b.inForest[q] {
			b.inForest[q] = true
			b.forest = append(b.forest, q)
			fresh = append(fresh, q)
		}
		w := b.g.Dist(prev, q)
		b.mergeEdge(prev, q, w)
		b.ds.Union(prev, q)
		b.edges = append(b.edges, graph.Edge{U: prev, V: q, W: w})
		prev = q
	}
	if b.c != nil {
		b.c.Embeds.Inc()
		b.c.SteinerPointsAdded.Add(int64(len(fresh)))
	}
	// The nodes of the embedded path are new sinks: seed their candidate
	// distances to every forest node outside the merged tree.
	for _, q := range fresh {
		for _, f := range b.forest {
			if !b.ds.Same(q, f) {
				heap.Push(&b.h, pairItem{d: b.g.Dist(q, f), a: q, b: f})
			}
		}
	}
}

// mergeEdge is the paper's Merge routine on the forest path-length map:
// fill cross-tree path lengths through edge (u,v) and refresh radii.
// Must run before the disjoint-set union.
func (b *builder) mergeEdge(u, v int, w float64) {
	mu := b.ds.Members(u)
	mv := b.ds.Members(v)
	for _, x := range mu {
		base := b.pathLen(x, u) + w
		rowMax := b.r[x]
		for _, y := range mv {
			pxy := base + b.pathLen(v, y)
			b.p[graph.EdgeKey(x, y)] = pxy
			if pxy > rowMax {
				rowMax = pxy
			}
		}
		b.r[x] = rowMax
	}
	for _, y := range mv {
		colMax := b.r[y]
		for _, x := range mu {
			if pxy := b.pathLen(x, y); pxy > colMax {
				colMax = pxy
			}
		}
		b.r[y] = colMax
	}
}

// fallbackConnect attaches the partial tree containing x to the source
// tree. It first maze-routes planarly (Dijkstra around occupied nodes);
// if no planar route stays within the bound it falls back to a layered
// "jumper" — a direct wire from the best (member, attach) pair that may
// cross existing wires on another routing layer without connecting. The
// witness invariant guarantees the jumper through the witness node
// satisfies the bound, so construction always completes feasibly.
func (b *builder) fallbackConnect(x int) {
	if b.c != nil {
		b.c.FallbackConnects.Inc()
	}
	mazePath, mazeTotal := b.mazeRoute(x)
	if mazePath != nil && b.within(mazeTotal) {
		b.countMaze()
		b.embed(mazePath)
		return
	}
	if b.planar {
		// Crossing wires is forbidden: take the best planar route if any
		// (the final bound check decides feasibility), else give up.
		if mazePath != nil {
			b.countMaze()
			b.embed(mazePath)
			return
		}
		b.notPlanar = true
		return
	}
	w, z, jumpTotal := b.bestJumper(x)
	if mazePath != nil && mazeTotal <= jumpTotal {
		b.countMaze()
		b.embed(mazePath)
		return
	}
	if b.c != nil {
		b.c.JumperWires.Inc()
	}
	d := b.g.Dist(w, z)
	b.mergeEdge(w, z, d)
	b.ds.Union(w, z)
	b.edges = append(b.edges, graph.Edge{U: w, V: z, W: d})
}

// bestJumper picks the (member w of x's tree, source-tree node z) pair
// minimizing r[w] + dist(w,z) + pathLen(S,z): the worst-case source-sink
// path after connecting w to z by a direct layered wire.
func (b *builder) bestJumper(x int) (w, z int, total float64) {
	total = math.Inf(1)
	srcMembers := b.ds.Members(b.srcGrid)
	for _, cand := range b.ds.Members(x) {
		for _, att := range srcMembers {
			t := b.r[cand] + b.g.Dist(cand, att) + b.pathLen(b.srcGrid, att)
			if t < total {
				total = t
				w, z = cand, att
			}
		}
	}
	return w, z, total
}

// mazeRoute finds the attachment route from x's tree to the source tree
// minimizing r[w] + routeLength + pathLen(S, z), avoiding occupied grid
// nodes in the route interior. Returns the node sequence from the chosen
// member w to the chosen source-tree node z and the minimized total, or
// (nil, +Inf) when no planar route exists.
func (b *builder) mazeRoute(x int) ([]int, float64) {
	srcRep := b.ds.Find(b.srcGrid)
	xRep := b.ds.Find(x)
	if cap(b.mzDist) < b.g.Size() {
		b.mzDist = make([]float64, b.g.Size())
		b.mzFrom = make([]int, b.g.Size())
		b.mzDone = make([]bool, b.g.Size())
	}
	dist := b.mzDist[:b.g.Size()]
	from := b.mzFrom[:b.g.Size()]
	done := b.mzDone[:b.g.Size()]
	for i := range dist {
		dist[i] = math.Inf(1)
		from[i] = -1
		done[i] = false
	}
	h := &mazeHeap{}
	for _, w := range b.ds.Members(x) {
		dist[w] = b.r[w]
		heap.Push(h, mazeItem{node: w, cost: b.r[w]})
	}
	bestTotal := math.Inf(1)
	bestZ := -1
	for h.Len() > 0 {
		it := heap.Pop(h).(mazeItem)
		u := it.node
		if done[u] || it.cost > dist[u] {
			continue
		}
		done[u] = true
		if b.inForest[u] && b.ds.Find(u) == srcRep {
			if total := dist[u] + b.pathLen(b.srcGrid, u); total < bestTotal {
				bestTotal = total
				bestZ = u
			}
			continue // attach here; do not route through the source tree
		}
		if b.inForest[u] && b.ds.Find(u) != xRep {
			continue // another detached tree: cannot pass through
		}
		if b.inForest[u] && b.ds.Find(u) == xRep && from[u] != -1 {
			continue // re-entered own tree: a shorter start exists
		}
		cx, cy := b.g.Col(u), b.g.Row(u)
		for _, nb := range [4][2]int{{cx - 1, cy}, {cx + 1, cy}, {cx, cy - 1}, {cx, cy + 1}} {
			if nb[0] < 0 || nb[0] >= b.g.Cols() || nb[1] < 0 || nb[1] >= b.g.Rows() {
				continue
			}
			v := b.g.ID(nb[0], nb[1])
			if done[v] {
				continue
			}
			d := dist[u] + b.g.Dist(u, v)
			if d < dist[v] {
				dist[v] = d
				from[v] = u
				heap.Push(h, mazeItem{node: v, cost: d})
			}
		}
	}
	if bestZ == -1 {
		return nil, math.Inf(1)
	}
	// Reconstruct z -> w and reverse to w -> z.
	var rev []int
	for q := bestZ; q != -1; q = from[q] {
		rev = append(rev, q)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, bestTotal
}

type mazeItem struct {
	node int
	cost float64
}

type mazeHeap []mazeItem

func (h mazeHeap) Len() int            { return len(h) }
func (h mazeHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h mazeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mazeHeap) Push(x interface{}) { *h = append(*h, x.(mazeItem)) }
func (h *mazeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// SteinerPoints returns the grid points of the tree that are not
// instance terminals — the junctions and corners the construction
// introduced. Degree-3+ points are true Steiner branching points;
// degree-2 points are corners of L-shaped wires.
func (st *SteinerTree) SteinerPoints() []int {
	isTerminal := map[int]bool{}
	for t := 0; t < st.grid.NumTerminals(); t++ {
		isTerminal[st.grid.Terminal(t)] = true
	}
	seen := map[int]bool{}
	var out []int
	for _, e := range st.edges {
		for _, v := range [2]int{e.U, e.V} {
			if !isTerminal[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// BranchingPoints returns the Steiner points of degree three or more —
// the places where the tree genuinely branches off-terminal.
func (st *SteinerTree) BranchingPoints() []int {
	deg := map[int]int{}
	for _, e := range st.edges {
		deg[e.U]++
		deg[e.V]++
	}
	var out []int
	for _, v := range st.SteinerPoints() {
		if deg[v] >= 3 {
			out = append(out, v)
		}
	}
	return out
}
