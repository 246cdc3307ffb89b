// Package geom provides the plane-geometry substrate used by every tree
// construction in this repository: points, the L1 (Manhattan) and L2
// (Euclidean) metrics, distance matrices, and small helpers for bounding
// boxes and coordinate collections.
//
// All algorithms in the paper operate on terminals placed on a Manhattan or
// Euclidean plane; distances between terminals are metric distances in that
// plane, and the complete graph over the terminals is implied.
package geom

import (
	"fmt"
	"math"
	"sort"
)

// Point is a location on the routing plane.
type Point struct {
	X, Y float64
}

// String renders the point as "(x,y)" with compact float formatting.
func (p Point) String() string {
	return fmt.Sprintf("(%g,%g)", p.X, p.Y)
}

// Add returns the translation of p by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the translation of p by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by factor k about the origin.
func (p Point) Scale(k float64) Point { return Point{k * p.X, k * p.Y} }

// Eps is the default tolerance for comparing coordinates, weights and
// wirelengths. Two independently computed distances that are
// mathematically equal routinely differ in the last ulp (Euclidean
// mode especially, via math.Hypot), so exact float comparison is
// forbidden outside this package — the floatcmp analyzer in
// internal/analysis enforces that — and Eq/EqWithin are the approved
// helpers.
const Eps = 1e-9

// EqWithin reports whether a and b are equal within tolerance tol.
func EqWithin(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Eq reports whether a and b are equal within the default Eps
// tolerance.
func Eq(a, b float64) bool { return EqWithin(a, b, Eps) }

// Metric selects the plane metric used for all distances.
type Metric int

const (
	// Manhattan is the L1 metric: |dx| + |dy|. This is the wirelength
	// metric of rectilinear VLSI routing and the metric used for all
	// results in the paper.
	Manhattan Metric = iota
	// Euclidean is the L2 metric: sqrt(dx² + dy²).
	Euclidean
)

// String returns the conventional name of the metric.
func (m Metric) String() string {
	switch m {
	case Manhattan:
		return "Manhattan"
	case Euclidean:
		return "Euclidean"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined metrics.
func (m Metric) Valid() bool { return m == Manhattan || m == Euclidean }

// Dist returns the distance between a and b under metric m.
func (m Metric) Dist(a, b Point) float64 {
	switch m {
	case Manhattan:
		return l1(a, b)
	case Euclidean:
		return math.Hypot(a.X-b.X, a.Y-b.Y)
	default:
		panic("geom: invalid metric")
	}
}

// l1 is Manhattan's Dist, split out so the matrix fill's inner loop
// inlines it.
func l1(a, b Point) float64 { return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y) }

// DistMatrix holds the pairwise distances between n points, one cell
// per unordered pair: the upper triangle plus the diagonal, row-major,
// n(n+1)/2 float64s in one backing slice. Row i stores w(i, j) for
// j = i..n-1, starting at offset base(i)+i, so the cell of (i, j) with
// i ≤ j sits at base(i)+j. The zero value is unusable; build one with
// NewDistMatrix.
type DistMatrix struct {
	n int
	d []float64
}

// NewDistMatrix computes the pairwise distances of pts under m, each
// unordered pair {i, j} once as m.Dist(pts[i], pts[j]) with i < j.
// Large matrices are filled in parallel when GOMAXPROCS allows more
// than one worker; every cell is the same call either way, so the
// result is byte-identical to the serial fill.
func NewDistMatrix(pts []Point, m Metric) *DistMatrix {
	n := len(pts)
	dm := &DistMatrix{n: n, d: make([]float64, n*(n+1)/2)}
	dm.fill(pts, m, workersFor(n, parallelMatrixMin))
	return dm
}

// fillRows computes rows [lo, hi) of the triangle: w(i, j) for i < j.
// row and rest share the length k, so the inner loops index both
// without bounds checks.
func (dm *DistMatrix) fillRows(pts []Point, m Metric, lo, hi int) {
	for i := lo; i < hi; i++ {
		pi, rest := pts[i], pts[i+1:]
		k := len(rest)
		row := dm.Row(i)[i+1:][:k]
		if m == Manhattan {
			for j := 0; j < k; j++ {
				row[j] = l1(pi, rest[j])
			}
			continue
		}
		for j := 0; j < k; j++ {
			row[j] = m.Dist(pi, rest[j])
		}
	}
}

// base returns the offset of Row(i) in the backing slice: row i's
// cells start at base(i)+i. i(2n-1-i) is always even, since one factor
// is.
func (dm *DistMatrix) base(i int) int { return (i * (2*dm.n - 1 - i)) >> 1 }

// Len returns the number of points the matrix was built over.
func (dm *DistMatrix) Len() int { return dm.n }

// At returns the distance between points i and j, read from the one
// cell of the pair: s = min(i-j, 0) by a sign mask, so j+s = min(i, j)
// and i-s = max(i, j) without a branch (the builtin min and max compile
// to jumps), and reads from either half of the matrix cost the same.
func (dm *DistMatrix) At(i, j int) float64 {
	d := i - j
	s := d & (d >> 63)
	return dm.d[dm.base(j+s)+i-s]
}

// Row returns a view of the matrix's storage whose entries j ≥ i are
// the distances w(i, j); it must not be modified. Its entries j < i
// are other pairs' cells, so a row scan that needs the lower half
// reads At instead.
func (dm *DistMatrix) Row(i int) []float64 {
	b := dm.base(i)
	return dm.d[b : b+dm.n : b+dm.n]
}

// MemBytes estimates the heap bytes retained by the matrix.
func (dm *DistMatrix) MemBytes() int64 { return int64(cap(dm.d)) * 8 }

// BBox is an axis-aligned bounding box.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// Bounds returns the bounding box of pts. It panics on an empty slice,
// because an empty box has no meaningful coordinates.
func Bounds(pts []Point) BBox {
	if len(pts) == 0 {
		panic("geom: Bounds of empty point set")
	}
	b := BBox{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		b.MinX = math.Min(b.MinX, p.X)
		b.MinY = math.Min(b.MinY, p.Y)
		b.MaxX = math.Max(b.MaxX, p.X)
		b.MaxY = math.Max(b.MaxY, p.Y)
	}
	return b
}

// Width returns the x extent of the box.
func (b BBox) Width() float64 { return b.MaxX - b.MinX }

// Height returns the y extent of the box.
func (b BBox) Height() float64 { return b.MaxY - b.MinY }

// Contains reports whether p lies inside or on the boundary of b.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// HalfPerimeter returns the half-perimeter wirelength of the box, a common
// lower-bound estimate for rectilinear Steiner trees.
func (b BBox) HalfPerimeter() float64 { return b.Width() + b.Height() }

// UniqueCoords returns the sorted distinct values of xs within tolerance
// eps: values closer than eps collapse to the first representative. It is
// used to build Hanan grids that are robust to floating-point coordinate
// noise. The result never aliases xs, so callers may mutate either.
func UniqueCoords(xs []float64, eps float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	// One defensive copy suffices: the dedup compacts s in place, and s
	// is owned by this call, so returning the compacted prefix cannot
	// alias the caller's slice.
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v-out[len(out)-1] > eps {
			out = append(out, v)
		}
	}
	return out
}

// Collinear reports whether the three points are collinear within tolerance
// tol on the cross-product test.
func Collinear(a, b, c Point, tol float64) bool {
	cross := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	return math.Abs(cross) <= tol
}

// OnSegment reports whether point p lies on the axis-aligned segment from a
// to b (the segment must be horizontal or vertical) within tolerance tol.
func OnSegment(p, a, b Point, tol float64) bool {
	if math.Abs(a.Y-b.Y) <= tol { // horizontal
		lo, hi := math.Min(a.X, b.X), math.Max(a.X, b.X)
		return math.Abs(p.Y-a.Y) <= tol && p.X >= lo-tol && p.X <= hi+tol
	}
	if math.Abs(a.X-b.X) <= tol { // vertical
		lo, hi := math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
		return math.Abs(p.X-a.X) <= tol && p.Y >= lo-tol && p.Y <= hi+tol
	}
	return false
}
