package delay

import (
	"context"
	"fmt"

	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/inst"
)

// ImproveElmore applies negative-sum-exchange search to a delay-bounded
// tree: exchanges reduce wirelength while the Elmore worst delay stays
// within (1+eps)·R. This extends the paper's §5 post-processing to the
// §3.2 delay model — exchanges that save wire also unload the driver, so
// they frequently reduce delay too. maxDepth caps the chained exchanges;
// budget caps search work (0 = unlimited). From a BKRUSElmoreBuild tree
// at maxDepth 2 it is BKH2Elmore, the delay-model analogue of BKH2.
// Cancellation propagates through the underlying exchange search.
func ImproveElmore(ctx context.Context, in *inst.Instance, start *graph.Tree, eps float64, m Model, maxDepth, budget int) (*graph.Tree, error) {
	if eps < 0 {
		return nil, fmt.Errorf("delay: negative eps %g", eps)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	//lint:ignore ctxflow StarR is a single O(n) Elmore fold; cancellation propagates through the exchange search below
	bound := (1 + eps) * StarR(in, m)
	res, err := exchange.ImproveFunc(ctx, in, start, func(t *graph.Tree) bool {
		return withinBound(SourceRadius(t, m), bound)
	}, exchange.Options{MaxDepth: maxDepth, MaxExpansions: budget})
	if err != nil {
		return nil, err
	}
	return res.Tree, nil
}
