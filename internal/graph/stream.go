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
// Order equivalence: edgeLess is a strict total order (weight, then the
// unique (U,V) pair), so the sorted permutation of any edge set is
// unique — whatever method produces a sorted sequence produces *the*
// sorted sequence. The stream therefore emits bit-identical order to
// SortEdges by construction; TestEdgeStreamMatchesSortEdges pins it.

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
	edges []Edge
	pos   int // next index to emit; edges[:pos] already emitted this pass
	ready int // high-water mark: edges[:ready] are in final sorted order
	// stack holds quicksort partition boundaries above ready, bottom
	// entry len(edges). Invariant: for the top boundary t, every edge
	// in [ready, t) precedes (edgeLess) every edge in [t, len(edges)).
	stack     []int
	batches   int // sorted batches produced, including fallback sorts
	fallbacks int // whole-tail fallback sorts taken (at most one)
}

// NewEdgeStream builds a lazy sorted stream over the complete graph of
// w's nodes. Construction enumerates the edges (O(n²)) but sorts
// nothing yet.
func NewEdgeStream(w Weights) *EdgeStream {
	return NewEdgeStreamFrom(CompleteEdges(w))
}

// NewEdgeStreamFrom builds a lazy sorted stream over an explicit edge
// set. The stream takes ownership of the slice and permutes it in
// place.
func NewEdgeStreamFrom(edges []Edge) *EdgeStream {
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
	return e, true
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
			SortEdges(s.edges[s.ready:hi])
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
			SortEdges(s.edges[s.ready : p+1])
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
	ParallelSortEdges(s.edges[s.ready:])
	s.ready = len(s.edges)
	s.stack = s.stack[:1] // keep only the bottom boundary len(edges)
	s.batches++
	s.fallbacks++
}

// partition performs a Lomuto partition of edges[lo:hi] around a
// median-of-three pivot and returns the pivot's final index. All edges
// left of it precede it; all edges right of it follow it (strictly —
// edgeLess is total). The pivot choice is a pure function of the data,
// so partitioning is deterministic.
func (s *EdgeStream) partition(lo, hi int) int {
	e := s.edges
	mid := lo + (hi-lo)/2
	// Order the (lo, mid, hi-1) trio so the median lands at hi-1.
	if edgeLess(e[mid], e[lo]) {
		e[mid], e[lo] = e[lo], e[mid]
	}
	if edgeLess(e[hi-1], e[lo]) {
		e[hi-1], e[lo] = e[lo], e[hi-1]
	}
	if edgeLess(e[mid], e[hi-1]) {
		e[mid], e[hi-1] = e[hi-1], e[mid]
	}
	pivot := e[hi-1]
	i := lo
	for j := lo; j < hi-1; j++ {
		if edgeLess(e[j], pivot) {
			e[i], e[j] = e[j], e[i]
			i++
		}
	}
	e[i], e[hi-1] = e[hi-1], e[i]
	return i
}
