package graph

// This file implements lazy sorted-edge streaming. A Kruskal-style scan
// over the complete geometric graph usually merges its V-1 edges after
// examining only a short prefix of the weight order, yet an eager
// CompleteEdges+SortEdges build pays O(n² log n) for the whole ~n²/2
// edge list every time. EdgeStream yields edges in exactly the
// SortEdges order but sorts incrementally: it maintains a quicksort
// partition frontier and only fully orders the next small batch when
// the consumer actually reaches it (incremental quicksort), so a build
// that stops early never pays for the tail.
//
// Order equivalence: compareEdges is a strict total order (weight, then
// the unique (U,V) pair), so the sorted permutation of any edge set is
// unique — whatever method produces a sorted sequence produces *the*
// sorted sequence. The stream therefore emits bit-identical order to
// SortEdges by construction; TestEdgeStreamMatchesSortEdges pins it.
//
// Representation: the stream holds packedEdge entries, 16 bytes each
// (the weight and both endpoints in one key), instead of 24-byte Edges,
// and orders them with typed comparators — a partition swap moves two
// words and no sort goes through reflection. Next unpacks one Edge at a
// time.

import (
	"math"
	"slices"
)

const (
	// streamBatch is the target size of one sorted batch: segments at
	// most this long are sorted outright instead of partitioned further.
	streamBatch = 256
	// streamFallbackDen: once a consumer has drained more than
	// 1/streamFallbackDen of the edges, the stream stops partitioning
	// and sorts the whole remaining tail in one (parallel) shot — a
	// deep drain is going to pay for the full order anyway, and the
	// batched refinement would just add partition overhead on top.
	streamFallbackDen = 2
)

// EdgeStream yields the edges of a complete graph in nondecreasing
// weight order (the exact SortEdges order, including tie-breaks),
// sorting lazily so consumers that stop after a prefix never pay for
// ordering the tail. The zero value is not usable; construct with
// NewEdgeStream or NewEdgeStreamFrom. A stream is not safe for
// concurrent use.
type EdgeStream struct {
	edges []packedEdge
	pos   int // next index to emit; edges[:pos] already emitted this pass
	ready int // high-water mark: edges[:ready] are in final sorted order
	// stack holds quicksort partition boundaries above ready, bottom
	// entry len(edges). Invariant: for the top boundary t, every edge
	// in [ready, t) precedes (comparePacked) every edge in [t, len(edges)).
	stack     []int
	batches   int // sorted batches produced, including fallback sorts
	fallbacks int // whole-tail fallback sorts taken (at most one)
}

// packedEdge is the stream's entry: the weight and the key
// uv = U<<32 | V. For ids in [0, 2³²) comparing uv compares (U, V)
// lexicographically, so ordering packed entries by (w, uv) is exactly
// compareEdges's order, canonical (U < V) or not.
type packedEdge struct {
	w  float64
	uv uint64
}

// packedEdgeBytes is the size of one packedEdge, for MemBytes
// (TestPackedEdgeSize pins it against unsafe.Sizeof).
const packedEdgeBytes = 16

// packEdge packs e, refusing endpoints the key cannot hold.
func packEdge(e Edge) packedEdge {
	guardVertexID(e.U)
	guardVertexID(e.V)
	return packedEdge{e.W, uint64(e.U)<<32 | uint64(e.V)}
}

// edge unpacks p.
func (p packedEdge) edge() Edge {
	return Edge{U: int(p.uv >> 32), V: int(p.uv & math.MaxUint32), W: p.w}
}

// comparePacked is compareEdges over packed entries. It is small
// enough to inline into the partition and merge loops.
func comparePacked(a, b packedEdge) int {
	switch {
	case a.w < b.w:
		return -1
	case a.w > b.w:
		return 1
	case a.uv < b.uv:
		return -1
	case a.uv > b.uv:
		return 1
	}
	return 0
}

// guardVertexID checks at the stream boundary that a vertex id fits the
// 32 bits packEdge gives each endpoint. The bound is the int32 id space
// the BKRUS engine guards as well, so no id the engine accepts is
// refused here. Pinned by TestEdgeStreamVertexIDGuard.
func guardVertexID(v int) {
	if v < 0 || v > math.MaxInt32 {
		panic("graph: vertex id outside the int32 id space")
	}
}

// NewEdgeStream builds a lazy sorted stream over the complete graph of
// w's nodes. Construction enumerates the edges (O(n²)) straight into
// the packed array but sorts nothing yet.
func NewEdgeStream(w Weights) *EdgeStream {
	n := w.Len()
	edges := make([]packedEdge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, packEdge(Edge{U: i, V: j, W: w.At(i, j)}))
		}
	}
	return newStream(edges)
}

// NewEdgeStreamFrom builds a lazy sorted stream over an explicit edge
// set. The stream copies the edges into its own packed array and leaves
// the slice untouched. Every endpoint must lie in [0, MaxInt32].
func NewEdgeStreamFrom(edges []Edge) *EdgeStream {
	packed := make([]packedEdge, len(edges))
	for i, e := range edges {
		packed[i] = packEdge(e)
	}
	return newStream(packed)
}

func newStream(edges []packedEdge) *EdgeStream {
	return &EdgeStream{edges: edges, stack: []int{len(edges)}}
}

// Len returns the total number of edges the stream will yield.
func (s *EdgeStream) Len() int { return len(s.edges) }

// Drained returns how many edges the current pass has emitted.
func (s *EdgeStream) Drained() int { return s.pos }

// SortedPrefix returns the high-water mark of edges already in final
// sorted order — the prefix a Reset pass re-serves without sorting.
func (s *EdgeStream) SortedPrefix() int { return s.ready }

// Batches returns how many sorted batches the stream has produced so
// far (monotone across Resets; includes fallback tail sorts).
func (s *EdgeStream) Batches() int { return s.batches }

// Fallbacks returns how many whole-tail fallback sorts the stream has
// taken (0 or 1 over its lifetime).
func (s *EdgeStream) Fallbacks() int { return s.fallbacks }

// Next yields the next edge in nondecreasing weight order, reporting
// false when the stream is exhausted.
func (s *EdgeStream) Next() (Edge, bool) {
	if s.pos == len(s.edges) {
		return Edge{}, false
	}
	if s.pos == s.ready {
		s.fill()
	}
	e := s.edges[s.pos]
	s.pos++
	return e.edge(), true
}

// Reset restarts emission from the smallest edge without discarding
// sorting work: the already-sorted prefix is re-served as-is and the
// lazy refinement resumes where the deepest previous pass stopped.
// This is what lets one stream serve a whole ε-sweep over an
// immutable instance.
func (s *EdgeStream) Reset() { s.pos = 0 }

// fill extends the sorted prefix past pos: it refines the partition
// frontier until the next batch (at least one edge) is in final order.
// Called only with pos == ready < len(edges).
func (s *EdgeStream) fill() {
	n := len(s.edges)
	if s.ready*streamFallbackDen >= n {
		// The consumer has drained deep into the edge order; sorting
		// the whole tail now is cheaper than batch-refining it.
		s.sortTail()
		return
	}
	for {
		hi := s.stack[len(s.stack)-1]
		if hi == s.ready {
			// Exhausted segment; the boundary below takes over. The
			// bottom entry is n > ready, so the stack never empties.
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		if hi-s.ready <= streamBatch {
			slices.SortFunc(s.edges[s.ready:hi], comparePacked)
			s.ready = hi
			s.stack = s.stack[:len(s.stack)-1]
			s.batches++
			return
		}
		p := s.partition(s.ready, hi)
		if p-s.ready <= streamBatch {
			// Small left side: sort it together with the pivot (which
			// is already in final position at p) and emit as one batch.
			// The untouched right side stays bounded by the old top.
			slices.SortFunc(s.edges[s.ready:p+1], comparePacked)
			s.ready = p + 1
			s.batches++
			return
		}
		s.stack = append(s.stack, p)
	}
}

// sortTail puts every remaining edge into final order in one shot.
func (s *EdgeStream) sortTail() {
	if s.ready == len(s.edges) {
		return
	}
	parallelSort(s.edges[s.ready:])
	s.ready = len(s.edges)
	s.stack = s.stack[:1] // keep only the bottom boundary len(edges)
	s.batches++
	s.fallbacks++
}

// partition performs a Lomuto partition of edges[lo:hi] around a
// median-of-three pivot and returns the pivot's final index. All edges
// left of it precede it; all edges right of it follow it (strictly —
// comparePacked is total). The pivot choice is a pure function of the data,
// so partitioning is deterministic.
func (s *EdgeStream) partition(lo, hi int) int {
	e := s.edges
	mid := lo + (hi-lo)/2
	// Order the (lo, mid, hi-1) trio so the median lands at hi-1.
	if comparePacked(e[mid], e[lo]) < 0 {
		e[mid], e[lo] = e[lo], e[mid]
	}
	if comparePacked(e[hi-1], e[lo]) < 0 {
		e[hi-1], e[lo] = e[lo], e[hi-1]
	}
	if comparePacked(e[mid], e[hi-1]) < 0 {
		e[mid], e[hi-1] = e[hi-1], e[mid]
	}
	pivot := e[hi-1]
	i := lo
	for j := lo; j < hi-1; j++ {
		if comparePacked(e[j], pivot) < 0 {
			e[i], e[j] = e[j], e[i]
			i++
		}
	}
	e[i], e[hi-1] = e[hi-1], e[i]
	return i
}
