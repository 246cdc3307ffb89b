package delay

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// SizedTree is a routing tree with a wire width assigned to every edge —
// the paper's §8 "wire sizing" future-work item. A wire of width w has
// resistance RUnit·l/w and capacitance CUnit·l·w: widening a wire near
// the driver cuts the resistance seen by the whole subtree at the price
// of more capacitive load.
type SizedTree struct {
	Tree   *graph.Tree
	Model  Model
	Widths []float64 // parallel to Tree.Edges; 1.0 = minimum width
}

// NewSizedTree wraps a tree with uniform minimum-width wires.
func NewSizedTree(t *graph.Tree, m Model) (*SizedTree, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	w := make([]float64, len(t.Edges))
	for i := range w {
		w[i] = 1
	}
	return &SizedTree{Tree: t, Model: m, Widths: w}, nil
}

// Delays returns the source-to-node Elmore delays under the width
// assignment (driver term included).
func (st *SizedTree) Delays() []float64 {
	t := st.Tree
	d, _ := new(rooted).hang(t.N, t.Edges, graph.Source).fold(rc{m: st.Model, widths: st.Widths}, true)
	return d
}

// WorstDelay returns the maximum source-sink delay under the sizing.
func (st *SizedTree) WorstDelay() float64 {
	return worst(st.Delays())
}

// WireArea returns the total metal area (Σ length·width), the cost a
// sizer trades against delay.
func (st *SizedTree) WireArea() float64 {
	var a float64
	for i, e := range st.Tree.Edges {
		a += e.W * st.Widths[i]
	}
	return a
}

// SizeWires greedily widens wires to minimize the worst source-sink
// Elmore delay: at each step it tries bumping every edge to its next
// allowed width and keeps the change with the largest improvement,
// stopping after maxChanges bumps or when nothing helps. allowed must be
// an ascending list of widths starting at 1 (minimum width).
func SizeWires(t *graph.Tree, m Model, allowed []float64, maxChanges int) (*SizedTree, error) {
	//lint:ignore floatcmp API contract check against an assigned (never computed) width value
	if len(allowed) == 0 || allowed[0] != 1 {
		return nil, fmt.Errorf("delay: allowed widths must start at 1, got %v", allowed)
	}
	if !sort.Float64sAreSorted(allowed) {
		return nil, fmt.Errorf("delay: allowed widths must ascend, got %v", allowed)
	}
	st, err := NewSizedTree(t, m)
	if err != nil {
		return nil, err
	}
	next := func(w float64) (float64, bool) {
		for _, a := range allowed {
			if a > w {
				return a, true
			}
		}
		return w, false
	}
	best := st.WorstDelay()
	for changes := 0; changes < maxChanges; changes++ {
		bestEdge := -1
		bestWidth := 0.0
		for i := range st.Widths {
			w, ok := next(st.Widths[i])
			if !ok {
				continue
			}
			old := st.Widths[i]
			st.Widths[i] = w
			if d := st.WorstDelay(); d < best-1e-12 {
				best = d
				bestEdge = i
				bestWidth = w
			}
			st.Widths[i] = old
		}
		if bestEdge == -1 {
			break
		}
		st.Widths[bestEdge] = bestWidth
	}
	return st, nil
}
