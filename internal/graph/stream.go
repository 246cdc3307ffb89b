package graph

// This file implements lazy sorted-edge streaming. A Kruskal-style scan
// over the complete geometric graph usually merges its V-1 edges after
// examining only a prefix of the weight order, yet an eager
// CompleteEdges+SortEdges build pays O(n² log n) for the whole ~n²/2
// edge list every time. EdgeStream yields edges in exactly the
// SortEdges order but sorts lazily: a counting sort distributes the
// edges into linear weight buckets — one pass for the weight range, one
// to count each bucket, one to scatter each entry into its bucket's
// slots — and a bucket is sorted only when the consumer reaches it, so
// a build that stops early never pays for ordering the tail.
//
// A reached bucket larger than bucketCap is bucketed again over its own
// weight range instead of sorted. That keeps the stream lazy on skewed
// inputs (one far outlier crowds every other edge into the first
// bucket) and on ranges too large for the cache, which are first spread
// over only narrowBuckets buckets and refined where the consumer reads.
// NewEdgeStream scatters from the weights straight into the packed
// array, so the complete graph is never held twice; a re-split, and
// the first split of a NewEdgeStreamFrom set, scatter from a copy of
// the bucket they split.
//
// Order equivalence: compareEdges is a strict total order (weight, then
// the unique (U,V) pair), so the sorted permutation of any edge set is
// unique — whatever method produces a sorted sequence produces *the*
// sorted sequence. The bucket index is nondecreasing in the weight
// (float rounding is monotone), so equal weights, +0 and −0 included,
// share a bucket and the concatenated sorted buckets are that sequence:
// the stream emits bit-identical order to SortEdges by construction;
// TestEdgeStreamMatchesSortEdges pins it.
//
// Filtering (Filter-Kruskal, Osipov, Sanders & Singler 2009): Next takes
// the consumer's disjoint set and never yields an edge whose endpoints
// it has already joined. When a pass reaches a leaf bucket (after any
// re-split, so bucket boundaries do not depend on the consumer), fill
// first moves the bucket's joined entries to its tail, sorts only the
// live front and skips the tail; an entry of the live front that a
// union joins while the bucket is served is skipped at its turn. Unions
// only grow, so an edge joined when its bucket is reached is still
// joined at its turn: every consumer decides exactly as it would over
// the unfiltered order. A filtered bucket is a permuted set of its
// entries, still a valid bucket, so Reset puts it (and every bucket
// the pass reached after it) back on the unsorted stack, and the next
// pass filters it again with its own forest.
//
// Representation: the stream holds packedEdge entries, 16 bytes each
// (the weight and both endpoints in one key), instead of 24-byte Edges,
// and orders them with typed comparators — a scatter or sort move copies
// two words and no sort goes through reflection. Next unpacks one Edge
// at a time.

import (
	"math"
	"slices"

	"repro/internal/cancel"
)

const (
	// bucketMean is the target number of entries per bucket of a
	// range that fits in cache.
	bucketMean = 64
	// cacheEntries is the largest range (1 MiB of entries) bucketed
	// bucketMean to a bucket. A larger range is spread over only
	// narrowBuckets buckets: writes scattered over more streams miss
	// the cache on nearly every entry, and the reached buckets are
	// bucketed again once they fit.
	cacheEntries  = 1 << 16
	narrowBuckets = 16
	// bucketCap is the largest bucket sorted outright when reached;
	// a larger one is bucketed again over its own weight range.
	bucketCap = 1024
)

// EdgeStream yields the edges of a complete graph in nondecreasing
// weight order (the exact SortEdges order, including tie-breaks, less
// the edges the consumer's disjoint set has joined), sorting lazily so
// consumers that stop after a prefix never pay for ordering the tail.
// The zero value is not usable; construct with NewEdgeStream or
// NewEdgeStreamFrom. A stream is not safe for concurrent use.
type EdgeStream struct {
	edges []packedEdge
	pos   int // next index to pass; edges[:pos] already passed this pass
	// edges[pos:live] are due in sorted order, and edges[live:end] are
	// the joined tail of the bucket being served.
	live, end int
	ready     int // high-water mark: edges[:ready] are in final sorted order
	// ends holds the end offsets of the unsorted buckets above the
	// ones this pass reached, the nearest on top. Every edge of a
	// bucket precedes (comparePacked) every edge of the buckets below
	// it on the stack.
	ends []int
	// filtered holds, ascending, the end offsets of the buckets this
	// pass reached from its first filtered one on: Reset returns them
	// to ends.
	filtered []int
	tmp      []packedEdge // the copy a re-split scatters from
	batches  int          // buckets sorted
	skipped  int          // joined entries passed over
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

// comparePacked is compareEdges over packed entries, small enough to
// inline.
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
// w's nodes. Construction reads the edges (O(n²)) three times — weight
// range, bucket counts, scatter — straight into the bucketed packed
// array, but sorts nothing yet.
func NewEdgeStream(w Weights) *EdgeStream {
	n := w.Len()
	guardVertexID(max(n-1, 0))
	var buf []float64
	r := weightRange{math.Inf(1), math.Inf(-1)}
	for i := 0; i < n; i++ {
		row := weightRow(w, i, &buf)
		for j := i + 1; j < n; j++ {
			r.add(row[j])
		}
	}
	b := r.buckets(n * (n - 1) / 2)
	off := make([]int, b.last+2)
	for i := 0; i < n; i++ {
		row := weightRow(w, i, &buf)
		for j := i + 1; j < n; j++ {
			off[b.index(row[j])+1]++
		}
	}
	s := &EdgeStream{edges: make([]packedEdge, n*(n-1)/2)}
	next := s.pushBuckets(0, off)
	for i := 0; i < n; i++ {
		row := weightRow(w, i, &buf)
		for j := i + 1; j < n; j++ {
			k := b.index(row[j])
			s.edges[next[k]] = packedEdge{row[j], uint64(i)<<32 | uint64(j)}
			next[k]++
		}
	}
	return s
}

// weightRow returns a row of weights whose entries j > i are w(i, j):
// w's own storage when w exposes its rows (geom.DistMatrix does), else
// *buf filled from At.
func weightRow(w Weights, i int, buf *[]float64) []float64 {
	if r, ok := w.(interface{ Row(i int) []float64 }); ok {
		return r.Row(i)
	}
	n := w.Len()
	*buf = slices.Grow((*buf)[:0], n)[:n]
	for j := i + 1; j < n; j++ {
		(*buf)[j] = w.At(i, j)
	}
	return *buf
}

// NewEdgeStreamFrom builds a lazy sorted stream over an explicit edge
// set. The stream copies the edges into its own packed array, as one
// bucket the first Next splits, and leaves the slice untouched. Every
// endpoint must lie in [0, MaxInt32].
func NewEdgeStreamFrom(edges []Edge) *EdgeStream {
	s := &EdgeStream{edges: make([]packedEdge, len(edges)), ends: []int{len(edges)}}
	for i, e := range edges {
		s.edges[i] = packEdge(e)
	}
	return s
}

// Len returns the total number of entries in the stream.
func (s *EdgeStream) Len() int { return len(s.edges) }

// Drained returns how many entries the current pass has passed over,
// yielded or skipped: one poll tick each.
func (s *EdgeStream) Drained() int { return s.pos }

// SortedPrefix returns the high-water mark of edges already in final
// sorted order — the prefix a Reset pass re-serves without sorting.
func (s *EdgeStream) SortedPrefix() int { return s.ready }

// Batches returns how many buckets the stream has sorted so far
// (monotone across Resets).
func (s *EdgeStream) Batches() int { return s.batches }

// Skipped returns how many joined entries the stream has passed over
// without yielding them (monotone across Resets): every entry of a
// filtered bucket's tail, counted when the bucket is reached, and every
// live entry joined by the time of its turn.
func (s *EdgeStream) Skipped() int { return s.skipped }

// Next yields the next edge in nondecreasing weight order whose
// endpoints ds has not joined, reporting false when the stream is
// exhausted. Unions the consumer makes between calls only remove
// edges, so ds must only ever grow within a pass; a nil ds filters
// nothing. Each entry passed over, yielded or skipped, ticks chk once
// (a nil chk never polls), and the first poll that sees the context
// done returns its error; the stream stays consistent for Reset.
func (s *EdgeStream) Next(ds *DisjointSet, chk *cancel.Checker) (Edge, bool, error) {
	for {
		if s.pos == s.live {
			for s.pos < s.end {
				s.pos++
				if err := chk.Tick(); err != nil {
					return Edge{}, false, err
				}
			}
			if s.pos == len(s.edges) {
				return Edge{}, false, nil
			}
			s.fill(ds)
			continue
		}
		p := s.edges[s.pos]
		s.pos++
		if err := chk.Tick(); err != nil {
			return Edge{}, false, err
		}
		e := p.edge()
		if ds != nil && ds.Same(e.U, e.V) {
			s.skipped++
			continue
		}
		return e, true, nil
	}
}

// Reset restarts emission from the smallest edge without discarding
// sorting work: the sorted prefix is re-served as-is, the buckets the
// previous pass filtered go back on the unsorted stack, and the lazy
// refinement resumes where the deepest previous pass stopped. This is
// what lets one stream serve a whole ε-sweep over an immutable
// instance.
func (s *EdgeStream) Reset() {
	for i := len(s.filtered) - 1; i >= 0; i-- {
		s.ends = append(s.ends, s.filtered[i])
	}
	s.filtered = s.filtered[:0]
	s.pos, s.live, s.end = 0, s.ready, s.ready
}

// fill serves the next bucket, bucketing it again first while it is
// larger than bucketCap and its weights still spread, then moving the
// entries ds has joined to its tail and sorting the rest. Called only
// with pos == live == end < len(edges).
func (s *EdgeStream) fill(ds *DisjointSet) {
	lo := s.pos
	for {
		hi := s.ends[len(s.ends)-1]
		s.ends = s.ends[:len(s.ends)-1]
		e := s.edges[lo:hi]
		if len(e) > bucketCap {
			r := weightRange{math.Inf(1), math.Inf(-1)}
			for _, p := range e {
				r.add(p.w)
			}
			if b := r.buckets(len(e)); b.last > 0 {
				// Scatter from a copy of the bucket back into it:
				// the same counting sort NewEdgeStream runs. A copy
				// that fits in cache reuses one buffer, so a deep
				// drain does not turn the edge array into garbage.
				src := append(s.tmp[:0], e...)
				if len(e) <= cacheEntries {
					s.tmp = src
				}
				off := make([]int, b.last+2)
				for _, p := range src {
					off[b.index(p.w)+1]++
				}
				next := s.pushBuckets(lo, off)
				for _, p := range src {
					k := b.index(p.w)
					e[next[k]-lo] = p
					next[k]++
				}
				continue
			}
		}
		live := len(e)
		if ds != nil {
			live = moveJoined(e, ds)
		}
		slices.SortFunc(e[:live], comparePacked)
		s.batches++
		s.skipped += len(e) - live
		s.live, s.end = lo+live, hi
		if live == len(e) && len(s.filtered) == 0 {
			s.ready = hi
		} else {
			s.filtered = append(s.filtered, hi)
		}
		return
	}
}

// moveJoined permutes e so the entries whose endpoints ds has not
// joined come first, and returns how many there are.
func moveJoined(e []packedEdge, ds *DisjointSet) int {
	rep := ds.rep
	k := 0
	for i, p := range e {
		if rep[p.uv>>32] != rep[p.uv&math.MaxUint32] {
			e[k], e[i] = e[i], e[k]
			k++
		}
	}
	return k
}

// pushBuckets turns off, the per-bucket counts of a range starting at
// lo shifted up one slot (off[k+1] counts bucket k), into bucket start
// offsets, pushes the ends of the non-empty buckets, the first on top,
// and returns each bucket's first slot as an absolute index — the
// write cursors of the scatter that follows.
func (s *EdgeStream) pushBuckets(lo int, off []int) []int {
	off[0] = lo
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	for k := len(off) - 1; k > 0; k-- {
		if off[k] > off[k-1] {
			s.ends = append(s.ends, off[k])
		}
	}
	return off[:len(off)-1]
}

// weightRange is the [lo, hi] span of the finite weights added to it,
// empty ([+Inf, −Inf]) before the first.
type weightRange struct{ lo, hi float64 }

func (r *weightRange) add(w float64) {
	if w-w != 0 { // ±Inf and NaN: ±Inf−±Inf and NaN−NaN are NaN
		return
	}
	if w < r.lo {
		r.lo = w
	}
	if w > r.hi {
		r.hi = w
	}
}

// buckets spreads the range of m entries over linear buckets:
// m/bucketMean of them when m fits in cacheEntries, narrowBuckets
// otherwise. A range that does not spread over a finite span (no finite
// weight, one distinct value, or an overflowing span) gets the single
// bucket 0.
func (r weightRange) buckets(m int) bucketing {
	nb := narrowBuckets
	if m <= cacheEntries {
		nb = m / bucketMean
	}
	span := r.hi - r.lo
	if nb <= 1 || !(span > 0 && span <= math.MaxFloat64) {
		return bucketing{lo: r.lo}
	}
	return bucketing{lo: r.lo, scale: float64(nb) / span, last: nb - 1}
}

// bucketing maps a weight to its bucket, nondecreasing in the weight:
// weights at or below lo (−Inf included) go to bucket 0, weights whose
// offset reaches the last bucket (+Inf included) to last. NaN, which
// no order places, goes to bucket 0.
type bucketing struct {
	lo, scale float64
	last      int
}

func (b bucketing) index(w float64) int {
	if !(w > b.lo) {
		return 0
	}
	if f := (w - b.lo) * b.scale; f < float64(b.last) {
		return int(f)
	}
	return b.last
}
