// Fixture: clean cases for the ctxflow analyzer's local loop check —
// none of these lines may produce a diagnostic.
package fixture

import (
	"context"

	"repro/internal/cancel"
)

// polledScan ticks the stride checker every iteration: the canonical
// shape.
func polledScan(ctx context.Context, weights []float64) (float64, error) {
	chk := cancel.New(ctx, 1024)
	total := 0.0
	for _, w := range weights {
		if err := chk.Tick(); err != nil {
			return 0, err
		}
		total += heavy(w)
	}
	return total, nil
}

// outerPollCoversInner: the enclosing loop polls, so the nested scan it
// drives inherits the poll.
func outerPollCoversInner(chk *cancel.Checker, rows [][]float64) error {
	for _, row := range rows {
		if err := chk.Tick(); err != nil {
			return err
		}
		for _, w := range row {
			heavy(w)
		}
	}
	return nil
}

// forwardsCtx hands the context to its per-item callee; the callee
// inherits the polling obligation.
func forwardsCtx(ctx context.Context, weights []float64) error {
	for _, w := range weights {
		if err := buildOne(ctx, w); err != nil {
			return err
		}
	}
	return nil
}

// notCancellable never sees a context or checker, so it owes no polls.
func notCancellable(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += heavy(w)
	}
	return total
}

// workerCountLoop is bounded by a plain local, not the instance.
func workerCountLoop(ctx context.Context, w int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for g := 0; g < w; g++ {
		heavyInt(g)
	}
	return nil
}

// suppressed documents a justified exemption.
func suppressed(ctx context.Context, weights []float64) float64 {
	_ = ctx
	total := 0.0
	//lint:ignore ctxflow fixture: post-construction fold, cheap relative to the build
	for _, w := range weights {
		total += heavy(w)
	}
	return total
}

func buildOne(ctx context.Context, w float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	heavy(w)
	return nil
}
