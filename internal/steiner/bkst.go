package steiner

import (
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

// pairLess orders candidates by distance, then by endpoints: a strict
// total order, so the pop sequence does not depend on the heap's shape.
func pairLess(p, q pairItem) bool {
	switch {
	case p.d < q.d:
		return true
	case p.d > q.d:
		return false
	case p.a != q.a:
		return p.a < q.a
	}
	return p.b < q.b
}

// BKST constructs a bounded path length rectilinear Steiner tree with
// every source-sink path at most (1+eps)·R. The instance must use the
// Manhattan metric. eps may be +Inf for the unconstrained Steiner
// heuristic. When a default obs registry is installed the construction
// records into its "steiner" scope.
func BKST(in *inst.Instance, eps float64) (*SteinerTree, error) {
	if eps < 0 {
		return nil, fmt.Errorf("steiner: negative eps %g", eps)
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
		return nil, fmt.Errorf("steiner: BKST requires the Manhattan metric, got %v", in.Metric())
	}
	//lint:ignore ctxflow heap seeding is O(terminals^2) before the first pop; run(ctx) polls from the first candidate on and BKST terminal counts are small by design
	b := newBuilder(in, bounds)
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
	//lint:ignore ctxflow post-construction O(terminals) bound check; cancellation mid-build is already honored inside run(ctx) and the check itself is pinned by TestBKSTZeroEpsRespectsBound and TestBKSTLUBoundsRespected
	for t, d := range st.PathLengths() { //lint:ignore ctxflow post-construction O(terminals) path-length fold pinned by TestBKSTZeroEpsRespectsBound
		if t == 0 {
			continue
		}
		if !bounds.WithinUpper(d) || !bounds.WithinLower(d) {
			return nil, ErrInfeasible
		}
	}
	return st, nil
}

// builder carries the BKST working state. The bounded Kruskal
// bookkeeping — disjoint set, source paths, radii, live witness lists
// and the (3-a)/(3-b) tests — is the core.Forest BKRUS drives too, here
// over grid node ids with the source terminal's node as its source.
type builder struct {
	g          *Grid
	bounds     core.Bounds
	planar     bool // forbid layered jumpers (wire crossings)
	notPlanar  bool // set when a planar completion failed
	f          core.Forest
	inForest   []bool
	isTerminal []bool
	forest     []int // all forest node ids
	terminals  int   // distinct terminal grid nodes
	joined     int   // distinct terminal grid nodes in the source tree
	h          *graph.Heap[pairItem]
	edges      []graph.Edge
	srcGrid    int
	c          *Counters // optional instrumentation (nil = off)

	// Maze-route scratch, grow-guarded: fallbackConnect runs mazeRoute
	// once per detached terminal, so the O(grid) working arrays are
	// reused across calls instead of reallocated per iteration.
	mzDist []float64
	mzFrom []int
	mzDone []bool
	mzHeap *graph.Heap[mazeItem]
}

// gridPairs is the Hanan grid's L1 metric as the forest's pair metric:
// no rectilinear grid path, and no jumper, is shorter than the L1
// distance between its ends.
type gridPairs struct{ g *Grid }

func (p gridPairs) At(a, b int) float64 { return p.g.Dist(a, b) }

func newBuilder(in *inst.Instance, bounds core.Bounds) *builder {
	g := NewGrid(in)
	b := &builder{
		g:          g,
		bounds:     bounds,
		inForest:   make([]bool, g.Size()),
		isTerminal: make([]bool, g.Size()),
		h:          graph.NewHeap(pairLess),
		srcGrid:    g.Terminal(0),
		joined:     1, // the source terminal's own node
	}
	b.f.Reset(g.Size(), b.srcGrid, g.DistToSource, gridPairs{g}, bounds)
	for t := 0; t < g.NumTerminals(); t++ {
		id := g.Terminal(t)
		b.isTerminal[id] = true
		if !b.inForest[id] {
			b.inForest[id] = true
			b.forest = append(b.forest, id)
		}
	}
	b.terminals = len(b.forest)
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
			b.h.Push(pairItem{a: a, b: c, d: b.g.Dist(a, c)})
		}
	}
}

func (b *builder) run(ctx context.Context) error {
	chk := cancel.New(ctx, 64)
	for b.h.Len() > 0 && b.joined < b.terminals {
		if err := chk.Tick(); err != nil {
			return err
		}
		b.step()
	}
	// Fallback: the heap ran dry with terminals still detached (possible
	// when every candidate embedding collided). Connect each remaining
	// tree through its best witness node — the same node the feasibility
	// invariant guarantees can carry a direct source connection.
	for t := 1; t < b.g.NumTerminals(); t++ {
		if err := chk.Err(); err != nil {
			return err
		}
		if id := b.g.Terminal(t); !b.f.InSource(id) {
			b.fallbackConnect(id)
		}
	}
	return nil
}

// step pops the next candidate pair and embeds it when it links two
// trees feasibly.
func (b *builder) step() {
	it := b.h.Pop()
	if b.c != nil {
		b.c.CandidatesExamined.Inc()
	}
	if b.f.Same(it.a, it.b) {
		return
	}
	if !b.feasible(it.a, it.b, it.d) {
		if b.c != nil {
			b.c.BoundRejections.Inc()
		}
		return
	}
	b.tryEmbed(it.a, it.b)
}

// feasible applies the BKRUS conditions (3-a)/(3-b) to linking a's and
// c's trees across distance d. At a source merge the lower bound
// applies to terminals only (lowerOKAfterSourceMerge).
func (b *builder) feasible(a, c int, d float64) bool {
	ok, base, att := b.f.Feasible(a, c, d)
	return ok && (att < 0 || b.lowerOKAfterSourceMerge(base, att))
}

// lowerOKAfterSourceMerge checks the §6 lower bound for a merge into the
// source tree: every terminal sink of the attaching tree acquires path
// base + path(att, y), which must clear the lower bound (Steiner points
// are exempt).
func (b *builder) lowerOKAfterSourceMerge(base float64, att int) bool {
	if b.bounds.Lower <= 0 {
		return true
	}
	d := b.f.PathsFrom(att)
	for _, y := range b.f.Members(att) {
		if b.isTerminal[y] && !b.bounds.WithinLower(base+d[y]) {
			return false
		}
	}
	return true
}

// link commits edge (u,v) of weight w, which joins two trees, to the
// forest and the tree, counting the terminals it brings into the source
// tree.
func (b *builder) link(u, v int, w float64) {
	if att := v; b.f.InSource(u) != b.f.InSource(v) {
		if b.f.InSource(v) {
			att = u
		}
		for _, y := range b.f.Members(att) {
			if b.isTerminal[y] {
				b.joined++
			}
		}
	}
	b.f.Link(u, v, w)
	b.edges = append(b.edges, graph.Edge{U: u, V: v, W: w})
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
func (b *builder) tryEmbed(a, c int) {
	paths := b.g.LPaths(a, c)
	for _, path := range paths {
		if b.firstCollisionIdx(path) == -1 {
			b.embed(path)
			return
		}
	}
	if b.c != nil {
		b.c.EmbedCollisions.Inc()
	}
	for _, path := range paths {
		if i := b.firstCollisionIdx(path); i != -1 {
			if z := path[i]; !b.f.Same(a, z) {
				b.h.Push(pairItem{d: b.g.Dist(a, z), a: a, b: z})
			}
			j := b.lastCollisionIdx(path)
			if z := path[j]; !b.f.Same(c, z) {
				b.h.Push(pairItem{d: b.g.Dist(z, c), a: z, b: c})
			}
		}
	}
}

// embed commits a collision-free path: every interior node joins the
// forest as a new sink, partial trees are linked node by node with the
// forest's Merge bookkeeping, and new candidate pairs are seeded.
func (b *builder) embed(path []int) {
	var fresh []int
	prev := path[0]
	for _, q := range path[1:] {
		if !b.inForest[q] {
			b.inForest[q] = true
			b.forest = append(b.forest, q)
			fresh = append(fresh, q)
		}
		b.link(prev, q, b.g.Dist(prev, q))
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
			if !b.f.Same(q, f) {
				b.h.Push(pairItem{d: b.g.Dist(q, f), a: q, b: f})
			}
		}
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
	if mazePath != nil && b.bounds.WithinUpper(mazeTotal) {
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
	b.link(w, z, b.g.Dist(w, z))
}

// bestJumper picks the (member w of x's tree, source-tree node z) pair
// minimizing r[w] + dist(w,z) + path(S,z): the worst-case source-sink
// path after connecting w to z by a direct layered wire.
func (b *builder) bestJumper(x int) (w, z int, total float64) {
	total = math.Inf(1)
	srcMembers := b.f.Members(b.srcGrid)
	for _, cand := range b.f.Members(x) {
		for _, att := range srcMembers {
			t := b.f.Radius(cand) + b.g.Dist(cand, att) + b.f.DistS(att)
			if t < total {
				total = t
				w, z = cand, att
			}
		}
	}
	return w, z, total
}

// mazeRoute finds the attachment route from x's tree to the source tree
// minimizing r[w] + routeLength + path(S, z), avoiding occupied grid
// nodes in the route interior. Returns the node sequence from the chosen
// member w to the chosen source-tree node z and the minimized total, or
// (nil, +Inf) when no planar route exists.
func (b *builder) mazeRoute(x int) ([]int, float64) {
	srcRep := b.f.Find(b.srcGrid)
	xRep := b.f.Find(x)
	if cap(b.mzDist) < b.g.Size() {
		b.mzDist = make([]float64, b.g.Size())
		b.mzFrom = make([]int, b.g.Size())
		b.mzDone = make([]bool, b.g.Size())
		b.mzHeap = graph.NewHeap(func(p, q mazeItem) bool { return p.cost < q.cost })
	}
	dist := b.mzDist[:b.g.Size()]
	from := b.mzFrom[:b.g.Size()]
	done := b.mzDone[:b.g.Size()]
	for i := range dist {
		dist[i] = math.Inf(1)
		from[i] = -1
		done[i] = false
	}
	h := b.mzHeap
	h.Reset()
	for _, w := range b.f.Members(x) {
		dist[w] = b.f.Radius(w)
		h.Push(mazeItem{node: w, cost: b.f.Radius(w)})
	}
	bestTotal := math.Inf(1)
	bestZ := -1
	for h.Len() > 0 {
		it := h.Pop()
		u := it.node
		if done[u] || it.cost > dist[u] {
			continue
		}
		done[u] = true
		if b.inForest[u] && b.f.Find(u) == srcRep {
			if total := dist[u] + b.f.DistS(u); total < bestTotal {
				bestTotal = total
				bestZ = u
			}
			continue // attach here; do not route through the source tree
		}
		if b.inForest[u] && b.f.Find(u) != xRep {
			continue // another detached tree: cannot pass through
		}
		if b.inForest[u] && b.f.Find(u) == xRep && from[u] != -1 {
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
				h.Push(mazeItem{node: v, cost: d})
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
