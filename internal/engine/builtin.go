// Built-in constructor registrations. They live here, inside the engine
// package, rather than in per-layer init functions: the engine's Params
// already imports every construction layer (delay.Model, core.Scratch,
// steiner.SteinerTree), so layers registering themselves would create
// import cycles. The cost is one central file; the benefit is that the
// layers stay plain libraries with no registration side effects.
package engine

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/exact"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/mst"
	"repro/internal/obs"
	"repro/internal/steiner"
)

// requireNonNegative rejects negative slack parameters with the field's
// conventional short name, keeping error text uniform across
// constructors.
func requireNonNegative(name string, v float64) error {
	if v < 0 {
		return fmt.Errorf("engine: negative %s %g", name, v)
	}
	return nil
}

// baselineCounters resolves the baseline layer's instrument set for a
// build: explicit registry if set, else the historical default-registry
// pickup.
func baselineCounters(p Params) *baseline.Counters {
	if p.Obs != nil {
		return baseline.NewCounters(p.Obs.Scope(baseline.ScopeName))
	}
	if sc := obs.DefaultScope(baseline.ScopeName); sc != nil {
		return baseline.NewCounters(sc)
	}
	return nil
}

// exactOptions wires Params into the exact layer's search options.
func exactOptions(p Params) exact.Options {
	return exact.Options{MaxTrees: p.GabowBudget}
}

func spanning(t *graph.Tree, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Tree: t}, nil
}

func steinerResult(st *steiner.SteinerTree, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Steiner: st}, nil
}

func init() {
	// Unbounded references.
	Register(Info{
		Name: "mst", Kind: Spanning,
		Doc: "minimal spanning tree (Kruskal); path lengths unbounded",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		// The scan reads the stream BKRUS reads: the complete graph, or on
		// the sparse substrate the octant neighbor edges, which contain
		// every MST edge, so both select the same tree.
		return spanning(mst.KruskalFrom(ctx, in.N(), p.Scratch.EdgeStream(in, p.Geometry)))
	})
	Register(Info{
		Name: "spt", Kind: Spanning,
		Doc: "shortest path tree (source star under a complete metric); minimal radius, maximal cost",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		return spanning(mst.SPT(in.Oracle(), graph.Source), nil)
	})
	Register(Info{
		Name: "maxst", Kind: Spanning,
		Doc: "maximal-cost spanning tree; adversarial reference for bound experiments",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		return spanning(mst.Maximal(ctx, in.DistMatrix()))
	})

	// The paper's core construction and its §6 window variant.
	Register(Info{
		Name: "bkrus", Kind: Spanning, Needs: []string{"eps"},
		Doc: "bounded Kruskal (§3): every source-sink path ≤ (1+ε)·R",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return spanning(core.BKRUSBuild(ctx, in, core.UpperOnly(in, p.Eps), p.coreConfig()))
	})
	Register(Info{
		Name: "bkruslu", Kind: Spanning, Needs: []string{"eps1", "eps2"},
		Doc: "bounded Kruskal with the §6 window: paths in [ε1·R, (1+ε2)·R]",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps1", p.Eps1); err != nil {
			return Result{}, err
		}
		if err := requireNonNegative("eps2", p.Eps2); err != nil {
			return Result{}, err
		}
		return spanning(core.BKRUSBuild(ctx, in, core.LowerUpper(in, p.Eps1, p.Eps2), p.coreConfig()))
	})

	// Prior-work baselines.
	Register(Info{
		Name: "bprim", Kind: Spanning, Needs: []string{"eps"},
		Doc: "bounded Prim baseline (Cong-Kahng-Robins)",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return spanning(baseline.BPRIMBuild(ctx, in, p.Eps, baselineCounters(p)))
	})
	Register(Info{
		Name: "brbc", Kind: Spanning, Needs: []string{"eps"},
		Doc: "bounded-radius bounded-cost baseline (MST tour with shortcuts)",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return spanning(baseline.BRBCBuild(ctx, in, p.Eps, baselineCounters(p)))
	})
	Register(Info{
		Name: "ahhk", Kind: Spanning, Needs: []string{"c"},
		Doc: "AHHK Prim-Dijkstra trade-off; c∈[0,1] blends MST (0) toward SPT (1)",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		return spanning(baseline.AHHKBuild(ctx, in, p.AHHKC))
	})

	// §5 exchange post-processing.
	Register(Info{
		Name: "bkh2", Kind: Spanning, Needs: []string{"eps", "xbudget"},
		Doc: "BKRUS + depth-2 negative-sum-exchange heuristic (§5)",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return spanning(exchange.BKH2Budget(ctx, in, p.Eps, p.ExchangeBudget))
	})
	Register(Info{
		Name: "bkex", Kind: Spanning, Needs: []string{"eps", "depth"},
		Doc: "BKRUS + unbounded negative-sum-exchange search (§5 exact method)",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return spanning(exchange.BKEX(ctx, in, p.Eps, p.ExchangeDepth))
	})

	// §4 exact enumeration.
	Register(Info{
		Name: "bmstg", Kind: Spanning, Needs: []string{"eps", "gbudget"},
		Doc: "optimal BMST by Gabow-style tree enumeration (§4)",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return spanning(exact.BMSTG(ctx, in, p.Eps, exactOptions(p)))
	})
	Register(Info{
		Name: "bmstglu", Kind: Spanning, Needs: []string{"eps1", "eps2", "gbudget"},
		Doc: "optimal BMST under the §6 window by tree enumeration",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps1", p.Eps1); err != nil {
			return Result{}, err
		}
		if err := requireNonNegative("eps2", p.Eps2); err != nil {
			return Result{}, err
		}
		b := core.LowerUpper(in, p.Eps1, p.Eps2)
		return spanning(exact.BMSTGBounds(ctx, in, b, exactOptions(p)))
	})

	// §3.2 Elmore-delay variants.
	Register(Info{
		Name: "elmore", Kind: Spanning, Needs: []string{"eps", "rc"},
		Doc: "BKRUS under the Elmore delay bound (1+ε)·R_delay (§3.2)",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return spanning(delay.BKRUSElmoreBuild(ctx, in, p.Eps, p.rcModel()))
	})
	Register(Info{
		Name: "bkh2elmore", Kind: Spanning, Needs: []string{"eps", "rc"},
		Doc: "Elmore-bounded BKRUS + depth-2 exchange search",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return spanning(delay.BKH2Elmore(ctx, in, p.Eps, p.rcModel()))
	})

	// §7 Steiner constructions (Manhattan metric only).
	Register(Info{
		Name: "bkst", Kind: Steiner, Needs: []string{"eps"},
		Doc: "bounded path length Steiner tree on the Hanan grid (§7)",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return steinerResult(steiner.BKSTBuild(ctx, in, core.UpperOnly(in, p.Eps), p.steinerConfig(false)))
	})
	Register(Info{
		Name: "bkstlu", Kind: Steiner, Needs: []string{"eps1", "eps2"},
		Doc: "bounded Steiner tree with the §6 window",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps1", p.Eps1); err != nil {
			return Result{}, err
		}
		if err := requireNonNegative("eps2", p.Eps2); err != nil {
			return Result{}, err
		}
		return steinerResult(steiner.BKSTBuild(ctx, in, core.LowerUpper(in, p.Eps1, p.Eps2), p.steinerConfig(false)))
	})
	Register(Info{
		Name: "bkstplanar", Kind: Steiner, Needs: []string{"eps"},
		Doc: "bounded Steiner tree restricted to planar embeddings",
	}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		if err := requireNonNegative("eps", p.Eps); err != nil {
			return Result{}, err
		}
		return steinerResult(steiner.BKSTBuild(ctx, in, core.UpperOnly(in, p.Eps), p.steinerConfig(true)))
	})
}
