package delay

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// VanGinneken places buffers on the tree to minimize the worst
// source-sink Elmore delay, optimally over placements at tree nodes —
// the classical dynamic program (van Ginneken, ISCAS 1990) behind the
// paper's §8 "effects of buffering" item.
//
// The DP walks the tree bottom-up maintaining, per subtree, a Pareto
// frontier of (downstream capacitance, required arrival time) options:
// RAT(sink) = 0, wires and buffers subtract their delay, siblings merge
// by summing capacitance and keeping the worse RAT, and dominated
// options (both more capacitive and tighter) are pruned. The root
// option with the best RAT after the driver delay yields the minimum
// achievable worst delay; the chosen placement is reconstructed by one
// walk over its back-pointers.
//
// maxBuffers caps the number of buffers (< 0 = unlimited). Placements
// are restricted to tree nodes (terminals), matching BufferedTree.
func VanGinneken(t *graph.Tree, m Model, buf Buffer, maxBuffers int) (*BufferedTree, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := buf.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	limit := maxBuffers
	if limit < 0 || limit > t.N-1 {
		limit = t.N - 1
	}

	rt := new(rooted).hang(t.N, t.Edges, graph.Source)
	children := make([][]int, t.N)
	for _, v := range rt.order[1:] {
		children[rt.parent[v]] = append(children[rt.parent[v]], v)
	}
	for _, c := range children {
		sort.Ints(c) // deterministic merge order
	}

	// option is one Pareto point of a subtree: seen-from-above cap and
	// required arrival time, with the buffer placement that achieves it.
	type option struct {
		cap     float64
		rat     float64
		buffers int
		placed  *placement // buffer placement within the subtree
	}
	prune := func(opts []option) []option {
		// sort by cap ascending, rat descending; keep the RAT frontier
		// per buffer count (options with more buffers must strictly win)
		sort.Slice(opts, func(i, j int) bool {
			//lint:ignore floatcmp a comparator must stay an exact strict weak order; epsilon ties would break sort transitivity
			if opts[i].cap != opts[j].cap {
				return opts[i].cap < opts[j].cap
			}
			return opts[i].rat > opts[j].rat
		})
		var out []option
		for _, o := range opts {
			dominated := false
			for _, k := range out {
				if k.cap <= o.cap && k.rat >= o.rat && k.buffers <= o.buffers {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, o)
			}
		}
		return out
	}

	opts := make([][]option, t.N)
	// bottom-up over the reverse pre-order
	for i := len(rt.order) - 1; i >= 0; i-- {
		v := rt.order[i]
		// start from the node's own load
		cur := []option{{cap: m.LoadAt(v), rat: 0}}
		// fold in children: wire from v to child c
		for _, c := range children[v] {
			l := rt.length[c]
			wireCap := m.CUnit * l
			wireR := m.RUnit * l
			var merged []option
			for _, oc := range opts[c] {
				// the wire sees the child's cap; its delay charges the child's RAT
				childCap := oc.cap + wireCap
				childRAT := oc.rat - wireR*(wireCap/2+oc.cap)
				for _, ov := range cur {
					if ov.buffers+oc.buffers > limit {
						continue
					}
					rat := ov.rat
					if childRAT < rat {
						rat = childRAT
					}
					merged = append(merged, option{
						cap:     ov.cap + childCap,
						rat:     rat,
						buffers: ov.buffers + oc.buffers,
						placed:  join(ov.placed, oc.placed),
					})
				}
			}
			cur = prune(merged)
		}
		// optionally buffer at v (not at the source: the driver sits there)
		if v != graph.Source {
			var withBuf []option
			for _, o := range cur {
				if o.buffers+1 > limit {
					continue
				}
				withBuf = append(withBuf, option{
					cap:     buf.CIn,
					rat:     o.rat - buf.Delay - buf.RDrive*o.cap,
					buffers: o.buffers + 1,
					placed:  &placement{buf: v, rest: o.placed},
				})
			}
			cur = prune(append(cur, withBuf...))
		}
		opts[v] = cur
	}

	// pick the root option maximizing RAT after the driver delay
	best := -1
	bestVal := 0.0
	for i, o := range opts[graph.Source] {
		val := o.rat - m.RDriver*(m.CDriver+o.cap)
		if best == -1 || val > bestVal {
			best = i
			bestVal = val
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("delay: van Ginneken produced no options")
	}
	at := make([]bool, t.N)
	opts[graph.Source][best].placed.mark(at)
	return NewBufferedTree(t, m, buf, at)
}

// placement is a back-pointer of the DP: an immutable node naming one
// buffered node (buf, or -1 for a pure merge) and the placements it
// extends. Options share these nodes, so merging two options or adding
// a buffer costs one allocation instead of a copy of the whole set.
type placement struct {
	buf         int
	rest, other *placement
}

// join returns the union of two disjoint placements.
func join(a, b *placement) *placement {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &placement{buf: -1, rest: a, other: b}
}

// mark sets at[v] for every buffered node v reachable from p.
func (p *placement) mark(at []bool) {
	for ; p != nil; p = p.rest {
		if p.buf >= 0 {
			at[p.buf] = true
		}
		p.other.mark(at)
	}
}
