// Package inst defines the routing instance shared by every algorithm in
// the repository: a source terminal, a set of sink terminals, and the
// plane metric. Node ids follow the repository convention: node 0 is the
// source, nodes 1..n are the sinks.
package inst

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Instance is an immutable routing problem: a signal source driving a set
// of sinks on a metric plane. Construct with New; the zero value is not
// usable. The terminal set and metric never change; the distance matrix
// and geometric index are lazily built caches, droppable with Release.
type Instance struct {
	pts    []geom.Point // pts[0] = source
	metric geom.Metric
	dm     *geom.DistMatrix // lazily built (dense mode)
	idx    *geom.Index      // lazily built (sparse mode)
	r      float64          // farthest source-to-sink distance (the paper's R)
	nearR  float64          // nearest source-to-sink distance (the paper's r)
}

// New builds an instance from a source, its sinks, and a metric. The sink
// slice is copied. Coordinates must be finite.
func New(source geom.Point, sinks []geom.Point, m geom.Metric) (*Instance, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("inst: invalid metric %d", int(m))
	}
	if len(sinks) == 0 {
		return nil, errors.New("inst: instance needs at least one sink")
	}
	pts := make([]geom.Point, 0, len(sinks)+1)
	pts = append(pts, source)
	pts = append(pts, sinks...)
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("inst: terminal %d has non-finite coordinates %v", i, p)
		}
	}
	in := &Instance{pts: pts, metric: m, nearR: math.Inf(1)}
	// Precompute both radii: the points are immutable, R is read in
	// per-edge inner loops (exchange, Gabow pruning), and paying the
	// scan here keeps R/NearestR O(1) on every later call.
	for i := 1; i < len(pts); i++ {
		d := m.Dist(pts[0], pts[i])
		if d > in.r {
			in.r = d
		}
		if d < in.nearR {
			in.nearR = d
		}
	}
	return in, nil
}

// MustNew is New but panics on error; intended for fixtures and examples.
func MustNew(source geom.Point, sinks []geom.Point, m geom.Metric) *Instance {
	in, err := New(source, sinks, m)
	if err != nil {
		panic(err)
	}
	return in
}

// N returns the total number of terminals (source + sinks).
func (in *Instance) N() int { return len(in.pts) }

// NumSinks returns the number of sinks.
func (in *Instance) NumSinks() int { return len(in.pts) - 1 }

// Source returns the source location.
func (in *Instance) Source() geom.Point { return in.pts[0] }

// Sinks returns the sink locations (a copy).
func (in *Instance) Sinks() []geom.Point {
	return append([]geom.Point(nil), in.pts[1:]...)
}

// Point returns the location of node id (0 = source).
func (in *Instance) Point(id int) geom.Point { return in.pts[id] }

// Points returns all terminal locations, source first (a copy).
func (in *Instance) Points() []geom.Point {
	return append([]geom.Point(nil), in.pts...)
}

// Metric returns the plane metric.
func (in *Instance) Metric() geom.Metric { return in.metric }

// DistMatrix returns the pairwise terminal distance matrix, computing and
// caching it on first use. Instances are not safe for concurrent first
// use; share the instance only after the matrix is built (or call
// DistMatrix once up front).
func (in *Instance) DistMatrix() *geom.DistMatrix {
	if in.dm == nil {
		in.dm = geom.NewDistMatrix(in.pts, in.metric)
	}
	return in.dm
}

// Dist returns the metric distance between terminals i and j, computed
// on demand from the coordinates. The value is bit-identical to
// DistMatrix().At(i, j) — both evaluate the same metric on the same
// points — but touches no O(n²) state.
func (in *Instance) Dist(i, j int) float64 {
	return in.metric.Dist(in.pts[i], in.pts[j])
}

// Oracle is a zero-materialization distance oracle over an instance's
// terminals. It satisfies graph.Weights structurally, so every consumer
// of a DistMatrix can run off an Oracle instead: At is an O(1) metric
// evaluation, bit-identical to the matrix entry, with no O(n²) backing
// store. The zero value is unusable; obtain one from Instance.Oracle.
type Oracle struct {
	pts []geom.Point
	m   geom.Metric
}

// At returns the distance between terminals i and j.
func (o Oracle) At(i, j int) float64 { return o.m.Dist(o.pts[i], o.pts[j]) }

// Len returns the number of terminals.
func (o Oracle) Len() int { return len(o.pts) }

// Oracle returns the instance's on-demand distance oracle. Unlike
// DistMatrix this allocates nothing and is always safe for concurrent
// use.
func (in *Instance) Oracle() Oracle {
	return Oracle{pts: in.pts, m: in.metric}
}

// Index returns the instance's grid-bucketed octant neighbor index,
// building and caching it on first use. Like DistMatrix, the first
// build is not safe for concurrent use; share the instance only after
// the index exists (or call Index once up front).
func (in *Instance) Index() *geom.Index {
	if in.idx == nil {
		in.idx = geom.NewIndex(in.pts, in.metric)
	}
	return in.idx
}

// Release drops the instance's lazy geometry caches — the O(n²)
// distance matrix and the octant index — mirroring core.Scratch.Release
// for sweep teardown. The terminals and precomputed radii survive, so
// the instance stays fully usable; the caches rebuild on next demand.
func (in *Instance) Release() {
	in.dm = nil
	in.idx = nil
}

// MemBytes estimates the heap bytes retained by the instance: the
// terminal slice plus whichever lazy geometry caches currently exist.
// Byte-accounted caches (internal/serve) use this to decide eviction.
func (in *Instance) MemBytes() int64 {
	b := int64(cap(in.pts)) * 16
	if in.dm != nil {
		b += in.dm.MemBytes()
	}
	if in.idx != nil {
		b += in.idx.MemBytes()
	}
	return b
}

// R returns the direct distance from the source to the farthest sink —
// the paper's R, the radius of the shortest path tree. Precomputed at
// construction; O(1).
func (in *Instance) R() float64 { return in.r }

// NearestR returns the direct distance from the source to the nearest
// sink — the paper's lowercase r in Table 1. Precomputed at
// construction; O(1).
func (in *Instance) NearestR() float64 { return in.nearR }

// Bound returns the path-length upper bound (1+eps)*R. eps = +Inf yields
// +Inf (the unconstrained MST case in the paper's tables).
func (in *Instance) Bound(eps float64) float64 {
	if math.IsInf(eps, 1) {
		return math.Inf(1)
	}
	return (1 + eps) * in.R()
}

// NumEdges returns the number of edges of the implied complete graph.
func (in *Instance) NumEdges() int {
	n := in.N()
	return n * (n - 1) / 2
}
