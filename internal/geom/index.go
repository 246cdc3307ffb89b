package geom

// This file implements the sparse-geometry substrate: a grid-bucketed
// point index answering octant nearest-neighbor queries. The index
// replaces the O(n²) distance matrix for large instances: instead of
// materializing every pairwise distance, each point stores its nearest
// neighbor in each of eight 45° sectors (octants) around it.
//
// Exactness: the octant neighbor graph contains the minimum spanning
// tree under both supported metrics. For L2 this is the classical Yao
// construction — each sector spans 45° < 60°, so for any two points u,v
// in a common sector of u with dist(u,x) ≤ dist(u,v) the third side
// satisfies dist(x,v) < dist(u,v), and the cycle property lets the MST
// swap (u,v) for the sector-nearest edge. For L1 the same eight-sector
// decomposition is the Guibas–Stolfi octant partition used by
// rectilinear MST algorithms: within a sector, the L1-nearest point
// "dominates" the rest, giving the identical exchange argument. Either
// way Kruskal over the octant graph reproduces the dense MST edge for
// edge (DESIGN.md §13 spells the argument out; the property tests in
// internal/core pin it empirically for both metrics).
//
// The search is a ring expansion over grid cells: for point u the scan
// visits cells in increasing Chebyshev ring order, side by side, and
// skips a side of a ring once the side's minimum possible distance
// exceeds the current best of every octant the side can hold (or the
// octant's dominant-axis cutoff proves it empty).
// Uniform instances touch O(1) cells per point; the worst case
// (all points in one cell) degrades to the brute-force scan, never to
// an incorrect answer.

import (
	"math"

	"repro/internal/obs"
)

// ScopeName is the obs scope the geometry layer records into.
// Index construction accumulates its search-effort counters there when
// a process-wide registry is installed (obs.SetDefault).
const ScopeName = "geom"

// Counter names of the geom scope, as they appear in a -metrics JSON
// report. OBSERVABILITY.md is the catalogue.
const (
	// CtrGridProbes counts grid cells visited by octant-neighbor ring
	// searches.
	CtrGridProbes = "grid_probes"
	// CtrOctantCandidates counts candidate points tested during
	// octant-neighbor searches.
	CtrOctantCandidates = "octant_candidates"
)

// Octants is the number of 45° sectors the plane is split into around
// each point. Eight sectors of 45° (< 60°) are what make the neighbor
// graph MST-exact for both metrics.
const Octants = 8

// Index is a grid-bucketed point index with precomputed octant nearest
// neighbors. Build one with NewIndex; the zero value is unusable. The
// index keeps a reference to the point slice it was built over, which
// must not be mutated afterwards. An Index is immutable after
// construction and safe for concurrent reads.
type Index struct {
	pts []Point
	m   Metric

	bb           BBox
	nx, ny       int
	cellW, cellH float64

	start []int32 // CSR cell offsets, len nx*ny+1
	ids   []int32 // point ids, bucket-major, ascending within a cell

	nbr  []int32   // nbr[Octants*i+o] = nearest point in octant o of i, -1 if empty
	nbrD []float64 // nbrD[Octants*i+o] = its distance

	probes     int64 // grid cells visited across all searches
	candidates int64 // candidate points tested across all searches
}

// NewIndex builds the grid index and precomputes every point's octant
// nearest neighbors under m. Construction is O(n) expected for
// uniformly distributed points. The pts slice is referenced, not
// copied. The per-point searches are independent, so sets of at least
// parallelIndexMin points split them over runtime.GOMAXPROCS(0)
// workers; the tables and counters are the same for any worker count.
func NewIndex(pts []Point, m Metric) *Index {
	return newIndex(pts, m, workersFor(len(pts), parallelIndexMin))
}

// newIndex is NewIndex with the search split over the given number of
// workers (1 is the serial search).
func newIndex(pts []Point, m Metric, workers int) *Index {
	n := len(pts)
	if n > math.MaxInt32 {
		// Point ids are stored as int32 throughout the index (ids, nbr,
		// the CSR buckets); check the assumption once at the boundary so
		// every conversion below it is provably in range.
		panic("geom: point count exceeds the int32 id space")
	}
	if n > 1 && !m.Valid() {
		// The search computes distances inline; fail as m.Dist would
		// on the first candidate.
		panic("geom: invalid metric")
	}
	ix := &Index{pts: pts, m: m}
	if n == 0 {
		return ix
	}
	ix.bb = Bounds(pts)
	// About n cells shaped like the box, so cells stay square on a
	// skewed box: nx:ny follows W:H, each side clamped to [1, n]. A
	// square box keeps the g×g grid.
	g := math.Ceil(math.Sqrt(float64(n)))
	side := func(ratio float64) int {
		c := math.Round(g * math.Sqrt(ratio))
		if !(c >= 1) { // NaN too
			return 1
		}
		return int(math.Min(c, float64(n)))
	}
	w, h := ix.bb.Width(), ix.bb.Height()
	ix.nx, ix.ny = int(g), int(g)
	if w > 0 && h > 0 {
		ix.nx, ix.ny = side(w/h), side(h/w)
	}
	if w <= 0 {
		ix.nx = 1
	}
	if h <= 0 {
		ix.ny = 1
	}
	ix.cellW = w / float64(ix.nx)
	if ix.cellW <= 0 {
		ix.cellW = 1
	}
	ix.cellH = h / float64(ix.ny)
	if ix.cellH <= 0 {
		ix.cellH = 1
	}

	// CSR bucket fill: count, prefix-sum, place. Iterating ids in
	// ascending order keeps each bucket sorted by id, so the scan order
	// (and with it every tie-break) is a pure function of the data.
	cells := ix.nx * ix.ny
	ix.start = make([]int32, cells+1)
	for i := 0; i < n; i++ {
		ix.start[ix.cellOf(pts[i])+1]++
	}
	for c := 0; c < cells; c++ {
		ix.start[c+1] += ix.start[c]
	}
	ix.ids = make([]int32, n)
	next := make([]int32, cells)
	copy(next, ix.start[:cells])
	for i := 0; i < n; i++ {
		c := ix.cellOf(pts[i])
		ix.ids[next[c]] = int32(i)
		next[c]++
	}

	ix.nbr = make([]int32, Octants*n)
	ix.nbrD = make([]float64, Octants*n)
	ix.search(workers)

	// Opportunistic instrumentation, mirroring the core scope: flush the
	// construction's search effort into the process default registry when
	// one is installed.
	if sc := obs.DefaultScope(ScopeName); sc != nil {
		sc.Counter(CtrGridProbes).Add(ix.probes)
		sc.Counter(CtrOctantCandidates).Add(ix.candidates)
	}
	return ix
}

// cellOf maps a point to its grid cell, clamped to the grid.
func (ix *Index) cellOf(p Point) int {
	return ix.clampY(int((p.Y-ix.bb.MinY)/ix.cellH))*ix.nx + ix.clampX(int((p.X-ix.bb.MinX)/ix.cellW))
}

// search fills every point's octant table with w workers, each over a
// contiguous range of CSR positions. A worker writes only its own
// points' slots and counts its effort privately; the counts are summed
// once all workers are done. The build-time copy of the coordinates
// in CSR order lets a search read a run of cells as one sequential
// span instead of through ids.
func (ix *Index) search(w int) {
	n := len(ix.ids)
	xy := make([]Point, n)
	for k, id := range ix.ids {
		xy[k] = ix.pts[id]
	}
	if w > n {
		w = n
	}
	if w > 1 {
		probes := make([]int64, w)
		candidates := make([]int64, w)
		cut := make([]int, w+1)
		for g := range cut {
			cut[g] = n * g / w
		}
		fanOut(cut, func(g, lo, hi int) {
			probes[g], candidates[g] = ix.searchRange(xy, lo, hi)
		})
		for g := range probes {
			ix.probes += probes[g]
			ix.candidates += candidates[g]
		}
		return
	}
	ix.probes, ix.candidates = ix.searchRange(xy, 0, n)
}

// searchRange fills the octant tables of the points at CSR positions
// [lo, hi) and returns the cells and candidates it visited.
func (ix *Index) searchRange(xy []Point, lo, hi int) (probes, candidates int64) {
	s := octantSearch{ix: ix, xy: xy, l1: ix.m == Manhattan}
	for k := lo; k < hi; k++ {
		s.point(k)
	}
	return s.probes, s.candidates
}

// octantSearch is one worker's search: the point being searched, its
// octant bests and cutoffs, and the worker's effort counters.
type octantSearch struct {
	ix *Index
	xy []Point // xy[k] = pts[ids[k]], the coordinates in CSR order
	l1 bool    // Manhattan, else Euclidean

	u      Point
	cutoff [Octants]float64
	bestD  [Octants]float64
	bestID [Octants]int32

	probes     int64 // grid cells visited
	candidates int64 // candidate points tested
}

// octant classifies direction (dx,dy) into one of eight half-open 45°
// sectors counted counterclockwise from the positive x axis: sector o
// covers angles [o·45°, (o+1)·45°). Coincident points (dx = dy = 0)
// land in sector 3; their distance is 0, so they are found immediately
// wherever they are filed. Exact float comparison is deliberate: the
// sectors must partition the plane, and geom is the one package where
// exact comparison is the contract.
//
// The classifier is branch-free: every test below compiles to a
// conditional move, so a scan over points in random directions pays
// no mispredictions. The lower half-plane (dy < 0, or dy = 0 and
// dx < 0) starts at 4 and is mirrored through the origin (multiplying by
// −1 is exact). In the upper half, the origin included, the sector then
// counts the boundaries the direction has passed: 45° (y ≥ x), 90°
// (x ≤ 0) and 135° (y ≤ −x); the origin passes all three. The function
// stays within the inlining budget, so the scan loop inlines it.
func octant(dx, dy float64) int {
	o := 0
	if dx < 0 {
		o = 4
	}
	if dy != 0 {
		o = 0
	}
	if dy < 0 {
		o = 4
	}
	s := float64(1 - o>>1) // -1 on the lower half
	x, y := dx*s, dy*s
	if y >= x {
		o++
	}
	if x <= 0 {
		o++
	}
	if y <= -x {
		o++
	}
	return o
}

// point fills the eight octant-nearest slots of the point at CSR
// position k via a clamped ring expansion over the grid.
func (s *octantSearch) point(k int) {
	ix := s.ix
	u := s.xy[k]
	s.u = u
	for o := 0; o < Octants; o++ {
		s.bestD[o] = math.Inf(1)
		s.bestID[o] = -1
	}
	// cutoff[o] bounds the distance of every point that can fall in
	// octant o: the sector's dominant axis displacement is at most the
	// bounding-box extent that way, and both metrics satisfy
	// dist ≤ 2·|dominant displacement|. An octant whose points need a
	// strictly positive displacement along the other axis too (1, 3, 5,
	// 7; see octant) is empty when the box has no extent that way, as
	// on its edge rows and columns.
	xPos := 2 * (ix.bb.MaxX - u.X)
	xNeg := 2 * (u.X - ix.bb.MinX)
	yPos := 2 * (ix.bb.MaxY - u.Y)
	yNeg := 2 * (u.Y - ix.bb.MinY)
	s.cutoff[0], s.cutoff[7] = xPos, xPos
	s.cutoff[1], s.cutoff[2] = yPos, yPos
	s.cutoff[3], s.cutoff[4] = xNeg, xNeg
	s.cutoff[5], s.cutoff[6] = yNeg, yNeg
	for _, c := range [4]struct {
		o     int
		other float64
	}{{1, xPos}, {3, yPos}, {5, xNeg}, {7, yNeg}} {
		if c.other == 0 {
			s.cutoff[c.o] = 0
		}
	}

	ucx := ix.clampX(int((u.X - ix.bb.MinX) / ix.cellW))
	ucy := ix.clampY(int((u.Y - ix.bb.MinY) / ix.cellH))
	// Ring 0 is u's own cell, which holds u at position k: scan the
	// spans on either side of it.
	c := ucy*ix.nx + ucx
	s.probes++
	s.scan(int(ix.start[c]), k)
	s.scan(k+1, int(ix.start[c+1]))
	for r := 1; s.ring(ucx, ucy, r); r++ {
	}
	i := int(ix.ids[k])
	copy(ix.nbr[Octants*i:Octants*i+Octants], s.bestID[:])
	copy(ix.nbrD[Octants*i:Octants*i+Octants], s.bestD[:])
}

func (ix *Index) clampX(cx int) int {
	if cx < 0 {
		return 0
	}
	if cx >= ix.nx {
		return ix.nx - 1
	}
	return cx
}

func (ix *Index) clampY(cy int) int {
	if cy < 0 {
		return 0
	}
	if cy >= ix.ny {
		return ix.ny - 1
	}
	return cy
}

// The octants a side of a ring can hold. Cell indices are monotone in
// the coordinates, so a cell in a row above u's holds only points
// strictly above u (octants 0–3), and likewise below (4–7), right (6,
// 7, 0, 1) and left (2–5).
const (
	octAbove uint8 = 0x0F
	octBelow uint8 = 0xF0
	octRight uint8 = 0xC3
	octLeft  uint8 = 0x3C
)

// ring visits the in-grid cells at Chebyshev distance exactly r ≥ 1
// from cell (ucx,ucy) and folds their points into the octant bests. It
// skips a side of the ring when every octant the side can hold is
// settled: the side's points lie at least r−1 whole cells from u along
// its axis, and both metrics are at least the axis displacement, so a
// side is skipped when (r−1)·cell exceeds min(cutoff[o], bestD[o]) for
// each of its octants. The comparison is strict because a point at
// exactly bestD[o] may still win the tie on id. A skipped or
// out-of-grid side stays so on every later ring (the bound grows,
// bestD only shrinks), so ring reports whether it scanned any side:
// once it scans none, no later ring can change a best.
func (s *octantSearch) ring(ucx, ucy, r int) bool {
	ix := s.ix
	lowY := float64(r-1) * ix.cellH
	lowX := float64(r-1) * ix.cellW
	x0, x1 := ucx-r, ucx+r
	y0, y1 := ucy-r, ucy+r
	scanned := false
	// Bottom and top rows of the ring (full width, clamped). A row's
	// cells are adjacent in the CSR layout, so the row is one span;
	// probes still counts its cells.
	xa, xb := max(x0, 0), min(x1, ix.nx-1)
	for _, row := range [2]struct {
		cy  int
		oct uint8
	}{{y0, octBelow}, {y1, octAbove}} {
		if row.cy < 0 || row.cy >= ix.ny || settled(lowY, row.oct, &s.cutoff, &s.bestD) {
			continue
		}
		scanned = true
		c := row.cy * ix.nx
		s.probes += int64(xb - xa + 1)
		s.scan(int(ix.start[c+xa]), int(ix.start[c+xb+1]))
	}
	// Left and right columns, excluding the corners (the rows own them).
	ya, yb := max(y0+1, 0), min(y1-1, ix.ny-1)
	for _, col := range [2]struct {
		cx  int
		oct uint8
	}{{x0, octLeft}, {x1, octRight}} {
		if col.cx < 0 || col.cx >= ix.nx || settled(lowX, col.oct, &s.cutoff, &s.bestD) {
			continue
		}
		scanned = true
		s.probes += int64(yb - ya + 1)
		for cy := ya; cy <= yb; cy++ {
			c := cy*ix.nx + col.cx
			s.scan(int(ix.start[c]), int(ix.start[c+1]))
		}
	}
	return scanned
}

// settled reports whether no point at distance low or more can enter
// any octant of the set oct: each such octant is provably empty that
// far out (cutoff) or already holds a strictly closer point.
func settled(low float64, oct uint8, cutoff, bestD *[Octants]float64) bool {
	for o := 0; o < Octants; o++ {
		if oct>>o&1 != 0 && low <= cutoff[o] && low <= bestD[o] {
			return false
		}
	}
	return true
}

// scan tests the points at CSR positions [lo, hi) against u's octant
// bests. The displacement is taken once; |dx|+|dy| and
// math.Hypot(dx, dy) are bit-equal to m.Dist(u, q), since
// u.X−q.X = −dx exactly. Ties on distance break toward the smaller id,
// so the result is independent of the order cells are scanned in.
func (s *octantSearch) scan(lo, hi int) {
	xy := s.xy[lo:hi]
	ids := s.ix.ids[lo:hi]
	ids = ids[:len(xy)]
	s.candidates += int64(len(xy))
	u, l1 := s.u, s.l1
	for t, q := range xy {
		dx, dy := q.X-u.X, q.Y-u.Y
		var d float64
		if l1 {
			d = math.Abs(dx) + math.Abs(dy)
		} else {
			d = math.Hypot(dx, dy)
		}
		o := octant(dx, dy) & (Octants - 1) // always 0..7; the mask drops the bounds checks
		if j := ids[t]; d < s.bestD[o] || (d == s.bestD[o] && j < s.bestID[o]) {
			s.bestD[o] = d
			s.bestID[o] = j
		}
	}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// Metric returns the metric the index answers distances under.
func (ix *Index) Metric() Metric { return ix.m }

// Point returns the location of point i.
func (ix *Index) Point(i int) Point { return ix.pts[i] }

// Dist returns the metric distance between points i and j, computed on
// demand — the oracle counterpart of DistMatrix.At.
func (ix *Index) Dist(i, j int) float64 { return ix.m.Dist(ix.pts[i], ix.pts[j]) }

// Neighbor returns point i's nearest neighbor in octant o (0..7) and
// the distance to it. ok is false when the octant is empty.
func (ix *Index) Neighbor(i, o int) (j int, d float64, ok bool) {
	id := ix.nbr[Octants*i+o]
	if id < 0 {
		return -1, math.Inf(1), false
	}
	return int(id), ix.nbrD[Octants*i+o], true
}

// Probes returns the total number of grid cells visited while building
// the octant neighbor lists.
func (ix *Index) Probes() int64 { return ix.probes }

// Candidates returns the total number of candidate points tested while
// building the octant neighbor lists.
func (ix *Index) Candidates() int64 { return ix.candidates }

// MemBytes estimates the heap bytes retained by the index, excluding
// the point slice it references (the owning instance accounts for
// that).
func (ix *Index) MemBytes() int64 {
	return int64(cap(ix.start))*4 + int64(cap(ix.ids))*4 +
		int64(cap(ix.nbr))*4 + int64(cap(ix.nbrD))*8
}
