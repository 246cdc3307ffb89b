// Package router routes whole designs: many nets sharing a chip — the
// global routing context the paper's introduction places its trees in
// (performance-driven global routing, after Cong–Kahng–Robins 1992).
//
// It provides a netlist container with text IO, per-net routing
// policies built on the bounded path length constructions, aggregate
// quality accounting, and grid-based congestion estimation. Routing a
// netlist is embarrassingly parallel: nets are independent, so
// RouteParallel farms them to a bounded worker pool over an index
// channel and writes each result into a per-net slot. Invariants the
// implementation maintains:
//
//   - Determinism: results are written by net index, never appended
//     from workers, so Route and RouteParallel produce identical
//     Results for any worker count.
//   - Error isolation: a failing net records its error in its own
//     slot; after the pool drains, the first error (in net order)
//     aborts the run. Workers never abandon queued nets mid-run.
//   - Cost: one policy build per net — O(V³) per net for the BKRUS
//     policy — plus O(nets) assembly; the congestion map rasterises
//     tree edges onto a gcell grid in O(edges · gridspan).
//
// Per-net build latencies, worker utilisation, and success/failure
// counts are recorded into the "router" obs scope (see OBSERVABILITY.md)
// when observability is enabled.
package router

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
)

// Net is one named signal net of a design.
type Net struct {
	Name string
	In   *inst.Instance
}

// Netlist is an ordered collection of nets.
type Netlist struct {
	Nets []Net
}

// Add appends a net.
func (nl *Netlist) Add(name string, in *inst.Instance) {
	nl.Nets = append(nl.Nets, Net{Name: name, In: in})
}

// Bounds returns the bounding box of every terminal of every net.
func (nl *Netlist) Bounds() (geom.BBox, error) {
	var pts []geom.Point
	for _, n := range nl.Nets {
		pts = append(pts, n.In.Points()...)
	}
	if len(pts) == 0 {
		return geom.BBox{}, fmt.Errorf("router: empty netlist")
	}
	return geom.Bounds(pts), nil
}

// Policy builds a routing tree for one net. Build receives the routing
// run's context so cancellation propagates into long per-net
// constructions.
type Policy struct {
	Name  string
	Build func(ctx context.Context, in *inst.Instance) (*graph.Tree, error)
}

// enginePolicy is a policy that builds every net with one registered
// constructor through engine.Build.
func enginePolicy(name, algo string, p engine.Params) Policy {
	return Policy{
		Name: name,
		Build: func(ctx context.Context, in *inst.Instance) (*graph.Tree, error) {
			r, err := engine.Build(ctx, algo, in, p)
			return r.Tree, err
		},
	}
}

// BKRUSPolicy routes every net with the bounded Kruskal construction.
func BKRUSPolicy(eps float64) Policy {
	return enginePolicy(fmt.Sprintf("bkrus(eps=%g)", eps), "bkrus", engine.Params{Eps: eps})
}

// MSTPolicy routes every net at minimal wirelength, ignoring paths.
func MSTPolicy() Policy { return enginePolicy("mst", "mst", engine.Params{}) }

// SPTPolicy routes every net as the shortest path tree.
func SPTPolicy() Policy { return enginePolicy("spt", "spt", engine.Params{}) }

// AHHKPolicy routes with the Prim-Dijkstra trade-off heuristic.
func AHHKPolicy(c float64) Policy {
	return enginePolicy(fmt.Sprintf("ahhk(c=%g)", c), "ahhk", engine.Params{AHHKC: c})
}

// NetResult is the routed tree of one net with its quality metrics.
type NetResult struct {
	Name      string
	Tree      *graph.Tree
	Cost      float64
	Radius    float64
	R         float64 // direct distance to the farthest sink
	PathRatio float64 // Radius / R
}

// Result aggregates a routed design.
type Result struct {
	Policy         string
	Nets           []NetResult
	TotalCost      float64
	WorstPathRatio float64
	MeanPathRatio  float64
}

// Route routes every net of the netlist under the policy, sequentially.
// Cancellation propagates into each policy build.
func Route(ctx context.Context, nl *Netlist, p Policy) (*Result, error) {
	if len(nl.Nets) == 0 {
		return nil, fmt.Errorf("router: empty netlist")
	}
	res := &Result{Policy: p.Name}
	var ratioSum float64
	for _, n := range nl.Nets {
		t, err := p.Build(ctx, n.In)
		if err != nil {
			return nil, fmt.Errorf("router: net %q: %w", n.Name, err)
		}
		r := n.In.R()
		radius := t.Radius(graph.Source)
		ratio := math.Inf(1)
		if r > 0 {
			ratio = radius / r
		}
		nr := NetResult{
			Name: n.Name, Tree: t,
			Cost: t.Cost(), Radius: radius, R: r, PathRatio: ratio,
		}
		res.Nets = append(res.Nets, nr)
		res.TotalCost += nr.Cost
		ratioSum += ratio
		if ratio > res.WorstPathRatio {
			res.WorstPathRatio = ratio
		}
	}
	res.MeanPathRatio = ratioSum / float64(len(res.Nets))
	return res, nil
}
