// Fixture: unpolled loops in cancellable scopes, true positives for the
// ctxflow analyzer's local loop check. Lines marked `want:ctxflow` must
// each produce exactly one diagnostic.
package fixture

import (
	"context"

	"repro/internal/cancel"
)

// scanWithoutPoll handles a Checker but its instance-sized scan never
// ticks it.
func scanWithoutPoll(chk *cancel.Checker, weights []float64) float64 {
	_ = chk.Err() // polled once up front, not inside the loop
	total := 0.0
	for _, w := range weights { // want:ctxflow
		total += heavy(w)
	}
	return total
}

// drainUnderCtx runs a worklist loop without ever reading the context
// it was handed.
func drainUnderCtx(ctx context.Context, pending []int) int {
	_ = ctx
	total := 0
	for len(pending) > 0 { // want:ctxflow
		total += heavyInt(pending[0])
		pending = pending[1:]
	}
	return total
}

// goroutineScopePollsBeforeLoop: the literal body is its own scope,
// and a one-shot poll before the scan does not cover the scan itself.
func goroutineScopePollsBeforeLoop(chk *cancel.Checker, weights []float64) {
	done := make(chan struct{})
	go func() {
		if chk.Err() != nil {
			return
		}
		for _, w := range weights { // want:ctxflow
			heavy(w)
		}
		close(done)
	}()
	<-done
}

func heavyInt(n int) int { return n + 1 }

func heavy(w float64) float64 { return w * w }
