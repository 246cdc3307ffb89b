// Package core implements the paper's primary contribution: the Bounded
// path length KRUSkal construction (BKRUS, §3.1) and its lower+upper
// bounded variant (§6).
//
// BKRUS scans the complete-graph edges in nondecreasing weight order, as
// Kruskal does, merging two partial trees t_u and t_v by edge (u,v) only
// when the merged tree can still satisfy the path-length bound
// (1+ε)·R from the source to every sink:
//
//   - (3-a) if t_u contains the source:  path(S,u) + dist(u,v) + radius(v) ≤ bound
//     (symmetrically when t_v contains the source);
//   - (3-b) if neither contains the source: some node x of the merged tree
//     must satisfy dist(S,x) + radius_M(x) ≤ bound, so a direct source
//     connection through x can always finish the tree.
//
// The engine keeps only the bookkeeping these two tests read, in a
// Forest (forest.go) that the Steiner construction drives too. The
// paper's Merge stores P[x][y], the in-forest path length of every
// same-tree pair, in an n² matrix; the forest keeps the partial forest
// itself (adjacency lists), fills whole rows of it by DFS where a merge
// changes radii, and reads single paths from a rooted copy of each
// source-free tree. Inside source-free trees it also keeps r[x], the
// radius of x within its tree, each tree's diameter, and the live
// members (3-b) scans. The source tree needs none of it: (3-a) reads only path(S,u),
// so a tree that joins the source tree contributes its source paths
// (distS) and nothing else. The substrate only decides which edge
// sequence feeds the scan: the complete graph over the distance matrix
// (dense) or the octant edges plus the source star (sparse). No state
// is O(n²).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/inst"
)

// ErrInfeasible is returned when no spanning tree can satisfy the
// requested bounds. With only an upper bound (ε ≥ 0) BKRUS always
// succeeds (the source star is feasible); a lower bound can make the
// instance genuinely infeasible for node-branching spanning trees, as the
// paper notes in §6.
var ErrInfeasible = errors.New("core: no bounded spanning tree exists for the requested bounds")

// Bounds is an absolute path-length window applied to every source-sink
// path. Lower = 0 disables the lower bound; Upper = +Inf disables the
// upper bound (plain Kruskal MST).
type Bounds struct {
	Lower, Upper float64
}

// UpperOnly returns the standard BMST bounds (1+eps)·R for the instance.
func UpperOnly(in *inst.Instance, eps float64) Bounds {
	return Bounds{Lower: 0, Upper: in.Bound(eps)}
}

// LowerUpper returns the §6 clock-routing bounds: every source-sink path
// in [eps1·R, (1+eps2)·R].
func LowerUpper(in *inst.Instance, eps1, eps2 float64) Bounds {
	return Bounds{Lower: eps1 * in.R(), Upper: in.Bound(eps2)}
}

// Validate checks the window is well formed.
func (b Bounds) Validate() error {
	if b.Lower < 0 || math.IsNaN(b.Lower) || math.IsNaN(b.Upper) {
		return fmt.Errorf("core: malformed bounds %+v", b)
	}
	if b.Lower > b.Upper {
		return fmt.Errorf("core: empty bound window [%g, %g]", b.Lower, b.Upper)
	}
	return nil
}

// relTol is the relative tolerance applied to bound comparisons. Bounded
// trees routinely sit exactly on the bound (at ε = 0 the farthest sink's
// direct path equals R by definition), so accumulated floating-point
// noise of a few ulps must not flip feasibility.
const relTol = 1e-9

// WithinUpper reports v ≤ Upper within relative tolerance.
func (b Bounds) WithinUpper(v float64) bool {
	return v <= b.Upper+relTol*math.Max(1, math.Abs(b.Upper))
}

// WithinLower reports v ≥ Lower within relative tolerance (always true
// when no lower bound is set).
func (b Bounds) WithinLower(v float64) bool {
	if b.Lower <= 0 {
		return true
	}
	return v >= b.Lower-relTol*math.Max(1, b.Lower)
}

// FeasibleTree reports whether every source-sink path length of t lies
// within the bounds. Node 0 is the source; only sinks are constrained.
func FeasibleTree(t *graph.Tree, b Bounds) bool {
	d := t.PathLengthsFrom(graph.Source)
	for v := 1; v < t.N; v++ {
		if math.IsInf(d[v], 1) || !b.WithinUpper(d[v]) || !b.WithinLower(d[v]) {
			return false
		}
	}
	return true
}

// Config carries the optional hooks of one BKRUS construction.
type Config struct {
	// Counters receives the construction's event counts; nil counts
	// nothing.
	Counters *Counters
	// Scratch, when non-nil, supplies the working buffers and the
	// lazily sorted edge stream, reused across runs instead of
	// re-allocated. The scratch must not be shared between concurrent
	// constructions.
	Scratch *Scratch
	// Geometry selects the edge sequence the scan reads: dense (the
	// complete graph over the materialized matrix, the historical
	// behaviour) or sparse (octant neighbor graph plus source star over
	// the distance oracle, no O(n²) state). The zero value GeomAuto
	// resolves by instance size (SparseThreshold).
	Geometry Geometry
}

// BKRUSBuild is the bounded Kruskal construction, the one entry point
// behind every BKRUS variant: an arbitrary bound window, explicit
// counters, a reusable scratch, and a context checked periodically
// inside the edge scan so sweeps and servers can enforce deadlines. A
// cancelled ctx surfaces as ctx.Err() within a bounded number of edge
// examinations.
//
// UpperOnly(in, ε) gives the paper's BKRUS (§3.1): every source-sink
// path at most (1+ε)·R. For ε ≥ 0 (ε may be +Inf, which yields the
// MST) it always succeeds, since the source star is feasible.
// LowerUpper(in, ε1, ε2) gives the §6 window [ε1·R, (1+ε2)·R]; unlike
// the upper bound alone it can fail with ErrInfeasible.
func BKRUSBuild(ctx context.Context, in *inst.Instance, b Bounds, cfg Config) (*graph.Tree, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	//lint:ignore ctxflow the lazy stream's bucket passes (range, count, scatter over the n(n-1)/2 edges) are run-to-completion by design, amortized across the sweep; run(ctx) polls every cancelStride stream entries after them
	e := newEngine(in, b, cfg)
	return e.run(ctx)
}

// Scratch holds the reusable working state of the BKRUS engine: the
// forest (adjacency, source paths, radii, live lists, the disjoint set
// and the witness DFS's buffers) and the lazily sorted edge stream
// (cached per instance and substrate; the instance is immutable, so an
// ε-sweep over one instance shares one partially drained stream — the
// prefix one run sorts is free for the next). Every buffer is O(n) but
// the stream. A zero Scratch is ready to use; it grows to the largest
// instance it has served and is not safe for concurrent use.
type Scratch struct {
	f Forest

	stream       *graph.EdgeStream
	streamFor    *inst.Instance
	streamSparse bool
}

// EdgeStream returns the cached lazy edge stream for in on the
// substrate g selects, rebuilding it only when the instance or the
// substrate changes and rewinding it otherwise. Dense streams the
// complete graph over in's distance matrix; sparse streams the octant
// neighbor edge set plus the source star and never enumerates the
// complete graph. It is the one place a Kruskal scan's substrate is
// picked: BKRUS and the engine's mst constructor both read it. A nil
// scratch returns a fresh stream that nothing caches.
func (s *Scratch) EdgeStream(in *inst.Instance, g Geometry) *graph.EdgeStream {
	if s == nil {
		s = new(Scratch)
	}
	sparse := g.Sparse(in.N())
	if s.streamFor == in && s.streamSparse == sparse {
		s.stream.Reset()
		return s.stream
	}
	if sparse {
		s.stream = graph.NewSparseEdgeStream(in.Index(), graph.Source)
	} else {
		s.stream = graph.NewEdgeStream(in.DistMatrix())
	}
	s.streamFor, s.streamSparse = in, sparse
	return s.stream
}

// Release drops the scratch's per-instance state — the cached edge
// stream, the instance pointer keying it and the forest's metric.
// Pooled scratches (engine.Build's sync.Pool, engine.Sweep teardown)
// must call this before parking, otherwise a long-lived pool entry pins
// the last served instance and its O(n²) edge list forever — the
// server-style reuse leak. What survives is the forest's O(n) buffers,
// so reuse across instances of similar size still avoids
// re-allocation, and a parked scratch holds no n² term.
func (s *Scratch) Release() {
	s.stream = nil
	s.streamFor = nil
	s.streamSparse = false
	s.f.pair = nil
}

// MemBytes estimates the heap bytes currently retained by the scratch:
// the forest's buffers plus the cached edge stream. Pooled consumers
// with byte budgets (internal/serve) use this to account pinned
// scratches.
func (s *Scratch) MemBytes() int64 {
	b := s.f.MemBytes()
	if s.stream != nil {
		b += s.stream.MemBytes()
	}
	return b
}

// engine carries the BKRUS working state for one construction.
type engine struct {
	n      int
	b      Bounds
	f      *Forest           // the scratch's forest: source 0, dist(S,·) and pairs from dm
	c      *Counters         // optional instrumentation (nil = off)
	stream *graph.EdgeStream // candidate edges in nondecreasing weight order
}

func newEngine(in *inst.Instance, b Bounds, cfg Config) *engine {
	n := in.N()
	s := cfg.Scratch
	if s == nil {
		s = new(Scratch)
	}
	sparse := cfg.Geometry.Sparse(n)
	var dm graph.Weights
	if sparse {
		dm = in.Oracle()
	} else {
		dm = in.DistMatrix()
	}
	s.f.Reset(n, graph.Source, func(x int) float64 { return dm.At(graph.Source, x) }, dm, b)
	return &engine{
		n:      n,
		b:      b,
		f:      &s.f,
		c:      cfg.Counters,
		stream: s.EdgeStream(in, cfg.Geometry),
	}
}

// cancelStride is how many stream entries the scan passes between
// context polls; small enough that cancellation lands promptly even on
// instances where each examination triggers a long witness scan.
const cancelStride = 64

func (e *engine) run(ctx context.Context) (*graph.Tree, error) {
	chk := cancel.New(ctx, cancelStride)
	t := graph.NewTree(e.n)
	batches0, skipped0 := e.stream.Batches(), e.stream.Skipped()
	defer func() {
		if e.c != nil {
			e.c.StreamBatches.Add(int64(e.stream.Batches() - batches0))
			e.c.CycleRejections.Add(int64(e.stream.Skipped() - skipped0))
			e.c.WitnessScans.Add(e.f.scans)
		}
	}()
	for len(t.Edges) < e.n-1 {
		// Condition (2): the stream skips cycle edges, filtering on
		// the forest's disjoint set.
		ed, ok, err := e.stream.Next(e.f.ds, &chk)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if e.c != nil {
			e.c.EdgesExamined.Inc()
		}
		if (ed.U == graph.Source || ed.V == graph.Source) && !e.b.WithinLower(ed.W) {
			if e.c != nil {
				e.c.LemmaRejections.Inc()
			}
			continue // Lemma 6.1: a direct source edge below the lower bound
		}
		if !e.feasible(ed) {
			if e.c != nil {
				e.c.BoundRejections.Inc()
			}
			continue // condition (3); Lemma 3.1 says never reconsider
		}
		e.f.Link(ed.U, ed.V, ed.W)
		t.Edges = append(t.Edges, ed)
		if e.c != nil {
			e.c.Merges.Inc()
		}
	}
	if len(t.Edges) != e.n-1 {
		return nil, ErrInfeasible
	}
	//lint:ignore ctxflow post-construction O(n) feasibility check; cancellation during the build is honored by the per-edge stride poll above
	if !FeasibleTree(t, e.b) {
		// Defensive: the feasibility tests guarantee this for upper-only
		// bounds; a lower bound can still be violated by nodes that ended
		// up closer than Lower through multi-hop paths.
		return nil, ErrInfeasible
	}
	return t, nil
}

// feasible applies condition (3-a) or (3-b) to candidate edge ed. At a
// source merge every node of the attaching tree is a sink, and the
// nearest of them is the attaching endpoint itself, whose new source
// path is base: it must clear the lower bound.
func (e *engine) feasible(ed graph.Edge) bool {
	ok, base, att := e.f.Feasible(ed.U, ed.V, ed.W)
	return ok && (att < 0 || e.b.WithinLower(base))
}
