package bpmst

import (
	"repro/internal/engine"
	"repro/internal/steiner"
)

// SteinerTree is a bounded path length rectilinear Steiner tree on the
// Hanan grid of a net's terminals.
type SteinerTree struct {
	net *Net
	st  *steiner.SteinerTree
}

// BKST constructs a bounded path length rectilinear Steiner tree (§3.3):
// every source-sink path is at most (1+eps)·R. The net must use the
// Manhattan metric. Typically 5-30% cheaper than the spanning
// constructions, at higher runtime.
func BKST(n *Net, eps float64) (*SteinerTree, error) {
	st, err := n.steinerTree("bkst", engine.Params{Eps: eps})
	return st, wrapErr(err)
}

// BKSTLU constructs a rectilinear Steiner tree with every source-sink
// path length in [eps1·R, (1+eps2)·R] — the paper's §8 lower+upper
// bounded Steiner extension. Steiner points are exempt from the lower
// bound; only real sinks are constrained. Tight windows can be
// infeasible (ErrInfeasible).
func BKSTLU(n *Net, eps1, eps2 float64) (*SteinerTree, error) {
	st, err := n.steinerTree("bkstlu", engine.Params{Eps1: eps1, Eps2: eps2})
	return st, wrapErr(err)
}

// BKSTPlanar constructs a bounded path length Steiner tree that never
// crosses its own wires (§8 "preserving planarity"). Returns the Steiner
// layer's error, unmapped, when no planar completion within the bound
// exists; the standard BKST then still succeeds by routing the last
// attachments on another layer.
func BKSTPlanar(n *Net, eps float64) (*SteinerTree, error) {
	return n.steinerTree("bkstplanar", engine.Params{Eps: eps})
}

// steinerTree runs a Steiner constructor through engine.Build.
func (n *Net) steinerTree(name string, p engine.Params) (*SteinerTree, error) {
	r, err := n.build(name, p)
	if err != nil {
		return nil, err
	}
	return &SteinerTree{net: n, st: r.Steiner}, nil
}

// IsPlanar reports whether the tree's embedding is planar (every wire a
// unit grid step, no layered jumpers).
func (s *SteinerTree) IsPlanar() bool { return steiner.IsPlanarEmbedding(s.st) }

// Net returns the net the tree routes.
func (s *SteinerTree) Net() *Net { return s.net }

// Cost returns the total wirelength including Steiner segments.
func (s *SteinerTree) Cost() float64 { return s.st.Cost() }

// Radius returns the longest source-sink path length.
func (s *SteinerTree) Radius() float64 { return s.st.Radius() }

// PathLengths returns the tree path length from the source to every
// terminal (index 0 = source).
func (s *SteinerTree) PathLengths() []float64 { return s.st.PathLengths() }

// Segments returns the wire segments as endpoint coordinate pairs with
// their lengths. Segment endpoints are Hanan grid points; interior
// points of a segment chain are Steiner points.
func (s *SteinerTree) Segments() []SteinerSegment {
	g := s.st.Grid()
	edges := s.st.Edges()
	out := make([]SteinerSegment, len(edges))
	for i, e := range edges {
		out[i] = SteinerSegment{A: g.Coord(e.U), B: g.Coord(e.V), Length: e.W}
	}
	return out
}

// SteinerSegment is one wire segment of a Steiner tree.
type SteinerSegment struct {
	A, B   Point
	Length float64
}

// PathRatio returns radius / R, as for spanning trees.
func (s *SteinerTree) PathRatio() float64 {
	r := s.net.R()
	if r == 0 {
		return 0
	}
	return s.Radius() / r
}

// PerfRatio returns cost over the reference spanning tree's cost,
// typically the MST; Steiner trees routinely achieve ratios below 1.
func (s *SteinerTree) PerfRatio(ref *Tree) float64 {
	return s.Cost() / ref.Cost()
}
