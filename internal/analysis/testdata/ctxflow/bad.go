// Fixture: true positives for the ctxflow analyzer (type-checked as if
// it were a cancellable construction package). Lines marked
// `want:ctxflow` must each produce exactly one diagnostic.
package fixture

import (
	"context"
)

// Build is cancellable but drops its context at the call into the
// instance-sized scan: scanAll can run arbitrarily long after ctx is
// cancelled.
func Build(ctx context.Context, weights []float64) float64 {
	if ctx.Err() != nil {
		return 0
	}
	return scanAll(weights) // want:ctxflow
}

// BuildDeep drops the context two calls above the hungry loop: outer
// (see helper.go) only forwards to inner, whose scan never polls. The
// hungriness must propagate up the summary chain.
func BuildDeep(ctx context.Context, weights []float64) float64 {
	if ctx.Err() != nil {
		return 0
	}
	return outer(weights) // want:ctxflow
}

// scanRowsUnpolled: a worker-count loop is exempt, but the scan nested
// inside it is instance-sized and never polls.
func scanRowsUnpolled(ctx context.Context, rows [][]float64, w int) float64 {
	_ = ctx
	total := 0.0
	for g := 0; g < w; g++ {
		for _, x := range rows[g] { // want:ctxflow
			total += heavy(x)
		}
	}
	return total
}

// scanAll is the hungry leaf: instance-sized work loop, no poll, no
// context to poll with.
func scanAll(weights []float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += heavy(w)
	}
	return total
}

func heavy(w float64) float64 { return w * w }
