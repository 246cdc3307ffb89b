package delay

import (
	"fmt"

	"repro/internal/graph"
)

// Buffer models a repeater cell for the paper's §8 future-work item
// "considering the effects of buffering": a buffer inserted at a tree
// node decouples its subtree from the upstream wire — the upstream stage
// sees only the buffer's input capacitance, and the buffer re-drives the
// subtree through its own output resistance.
type Buffer struct {
	RDrive float64 // output resistance of the buffer
	CIn    float64 // input capacitance presented upstream
	Delay  float64 // intrinsic switching delay
}

// Validate checks physical sanity.
func (b Buffer) Validate() error {
	if b.RDrive < 0 || b.CIn < 0 || b.Delay < 0 {
		return fmt.Errorf("delay: negative buffer parameter %+v", b)
	}
	return nil
}

// BufferedTree is a routing tree with repeaters at a subset of its
// nodes. The source is always a (driver) stage root.
type BufferedTree struct {
	Tree  *graph.Tree
	Model Model
	Buf   Buffer
	At    []bool // At[v]: a buffer sits at node v (never the source)
}

// NewBufferedTree prepares buffered-delay computation for tree t with
// buffers at the given nodes. The tree must span nodes 0..N-1 with the
// source at node 0.
func NewBufferedTree(t *graph.Tree, m Model, buf Buffer, at []bool) (*BufferedTree, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := buf.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(at) != t.N {
		return nil, fmt.Errorf("delay: buffer placement length %d over %d nodes", len(at), t.N)
	}
	if at[graph.Source] {
		return nil, fmt.Errorf("delay: the source already drives the net; no buffer allowed there")
	}
	return &BufferedTree{Tree: t, Model: m, Buf: buf, At: append([]bool(nil), at...)}, nil
}

// Delays returns the source-to-node delay of every node, staged through
// the buffers: each stage root (the source driver, or a buffer) drives
// its stage's RC tree; crossing a buffer adds its intrinsic delay plus
// its drive delay into the downstream stage capacitance.
func (bt *BufferedTree) Delays() []float64 {
	t := bt.Tree
	d, _ := new(rooted).hang(t.N, t.Edges, graph.Source).fold(rc{m: bt.Model, buf: bt.Buf, at: bt.At}, true)
	return d
}

// WorstDelay returns the maximum source-sink delay.
func (bt *BufferedTree) WorstDelay() float64 {
	return worst(bt.Delays())
}

// NumBuffers returns how many buffers are placed.
func (bt *BufferedTree) NumBuffers() int {
	n := 0
	for _, b := range bt.At {
		if b {
			n++
		}
	}
	return n
}
