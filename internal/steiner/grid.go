// Package steiner implements the paper's §3.3: bounded path length
// Steiner trees on the Hanan grid (BKST), plus the §8 extensions
// (lower+upper bounds, planar embedding).
//
// A spanning tree that connects the source and all sinks on the Hanan
// grid graph — the grid induced by the distinct x and y coordinates of
// the terminals (Hanan 1966) — is a rectilinear Steiner tree. BKST runs
// the bounded Kruskal construction over that graph: candidate
// connections are terminal-pair distances kept in a heap; a feasible
// connection is embedded as an L-shaped path whose corner lies closer to
// the source, and the grid nodes of the embedded path become new sinks
// that seed further candidates. When every L-path of a candidate
// collides with already-placed wires, the builder splits the candidate
// at the collision nodes; a tree that cannot connect at all falls back
// to breadth-first maze routing around occupied nodes, or to a layered
// "jumper" wire when crossing is permitted.
//
// Bookkeeping invariants:
//
//   - The partial forest is the core.Forest BKRUS drives, over grid
//     node ids: write-once source paths for the source tree, radii and
//     live witness lists for source-free trees, and the shared
//     (3-a)/(3-b) tests. Only the lower bound at a source merge is
//     BKST's own, because Steiner points are exempt from it.
//   - An embedded path occupies its grid nodes exactly once;
//     embed_collisions counts candidates re-queued after splitting.
//   - Complexity: the heap sees O(T²) seed pairs for T terminals and
//     O(P·F) follow-ups for P fresh path nodes over a forest of F
//     nodes; linking one path node costs O(size of the trees it
//     joins). Maze routing is O(grid) per fallback.
//
// Grid dimensions and per-construction counters are recorded into the
// "steiner" obs scope (see OBSERVABILITY.md) when observability is
// enabled.
package steiner

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/inst"
)

// coordEps is the tolerance under which coordinates are considered equal
// when building the grid.
const coordEps = 1e-9

// Grid is the Hanan grid of an instance: the cross product of the
// distinct terminal x and y coordinates. Grid nodes are identified by
// dense integer ids row-major over (xi, yi).
type Grid struct {
	Xs, Ys    []float64
	terminals []int // instance node id -> grid node id
	metric    geom.Metric
	source    geom.Point
}

// NewGrid builds the Hanan grid of the instance's terminals.
func NewGrid(in *inst.Instance) *Grid {
	pts := in.Points()
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	g := &Grid{
		Xs:     geom.UniqueCoords(xs, coordEps),
		Ys:     geom.UniqueCoords(ys, coordEps),
		metric: geom.Manhattan,
		source: in.Source(),
	}
	g.terminals = make([]int, len(pts))
	for i, p := range pts {
		id, ok := g.Locate(p)
		if !ok {
			panic("steiner: terminal off its own Hanan grid")
		}
		g.terminals[i] = id
	}
	return g
}

// Size returns the number of grid nodes.
func (g *Grid) Size() int { return len(g.Xs) * len(g.Ys) }

// Cols returns the number of distinct x coordinates.
func (g *Grid) Cols() int { return len(g.Xs) }

// Rows returns the number of distinct y coordinates.
func (g *Grid) Rows() int { return len(g.Ys) }

// ID returns the grid node id at column ix, row iy.
func (g *Grid) ID(ix, iy int) int { return iy*len(g.Xs) + ix }

// Col returns the column index of grid node id.
func (g *Grid) Col(id int) int { return id % len(g.Xs) }

// Row returns the row index of grid node id.
func (g *Grid) Row(id int) int { return id / len(g.Xs) }

// Coord returns the plane location of grid node id.
func (g *Grid) Coord(id int) geom.Point {
	return geom.Point{X: g.Xs[g.Col(id)], Y: g.Ys[g.Row(id)]}
}

// Terminal returns the grid node id of instance terminal t (0 = source).
func (g *Grid) Terminal(t int) int { return g.terminals[t] }

// NumTerminals returns the number of instance terminals.
func (g *Grid) NumTerminals() int { return len(g.terminals) }

// Locate returns the grid node at point p, if p coincides with a grid
// node within tolerance.
func (g *Grid) Locate(p geom.Point) (int, bool) {
	ix, okx := indexOf(g.Xs, p.X)
	iy, oky := indexOf(g.Ys, p.Y)
	if !okx || !oky {
		return 0, false
	}
	return g.ID(ix, iy), true
}

func indexOf(sorted []float64, v float64) (int, bool) {
	i := sort.SearchFloat64s(sorted, v-coordEps)
	if i < len(sorted) && sorted[i] <= v+coordEps {
		return i, true
	}
	return 0, false
}

// Dist returns the Manhattan distance between two grid nodes, which on
// the Hanan grid equals their shortest path length through the grid.
func (g *Grid) Dist(a, b int) float64 {
	return g.metric.Dist(g.Coord(a), g.Coord(b))
}

// DistToSource returns the Manhattan distance from grid node a to the
// source terminal.
func (g *Grid) DistToSource(a int) float64 {
	return g.metric.Dist(g.Coord(a), g.source)
}

// LPaths returns the candidate rectilinear paths between grid nodes a
// and b as node id sequences: the two L-shaped paths (via corner (xa,yb)
// and via (xb,ya)), ordered so the path whose corner is closer to the
// source comes first. Degenerate (collinear) pairs yield one straight
// path. Every returned path starts at a, ends at b, and steps through
// consecutive grid lines.
func (g *Grid) LPaths(a, b int) [][]int {
	ax, ay := g.Col(a), g.Row(a)
	bx, by := g.Col(b), g.Row(b)
	if ax == bx || ay == by {
		return [][]int{g.walk(a, b)}
	}
	c1 := g.ID(ax, by) // vertical first
	c2 := g.ID(bx, ay) // horizontal first
	p1 := appendPath(g.walk(a, c1), g.walk(c1, b))
	p2 := appendPath(g.walk(a, c2), g.walk(c2, b))
	if g.DistToSource(c2) < g.DistToSource(c1) {
		return [][]int{p2, p1}
	}
	return [][]int{p1, p2}
}

// appendPath joins two node sequences sharing one endpoint.
func appendPath(head, tail []int) []int {
	return append(head, tail[1:]...)
}

// walk returns the straight grid path from a to b (which must share a
// row or column), inclusive of both ends.
func (g *Grid) walk(a, b int) []int {
	ax, ay := g.Col(a), g.Row(a)
	bx, by := g.Col(b), g.Row(b)
	path := []int{a}
	switch {
	case ax == bx && ay == by:
		return path
	case ax == bx:
		step := 1
		if by < ay {
			step = -1
		}
		for y := ay + step; ; y += step {
			path = append(path, g.ID(ax, y))
			if y == by {
				return path
			}
		}
	case ay == by:
		step := 1
		if bx < ax {
			step = -1
		}
		for x := ax + step; ; x += step {
			path = append(path, g.ID(x, ay))
			if x == bx {
				return path
			}
		}
	default:
		panic("steiner: walk endpoints not collinear")
	}
}
