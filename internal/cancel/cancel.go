// Package cancel provides the cheap periodic context-cancellation check
// shared by every long construction loop (the BKRUS edge scan, the
// BMST_G search tree, exchange passes, the Steiner candidate heap, the
// parallel router). A Checker polls ctx.Done() once every stride
// iterations, so the hot loops pay one integer increment per iteration
// and one channel select per stride — cheap enough to leave enabled
// unconditionally, while still bounding how much work runs after a
// deadline or cancellation.
package cancel

import "context"

// DefaultStride is the poll interval used when New is given a
// non-positive stride: one ctx.Done() select per 1024 loop iterations.
const DefaultStride = 1024

// Checker is a periodic cancellation probe. The zero value and a nil
// *Checker never cancel (equivalent to New(context.Background(), ...)),
// so a callee that polls on its caller's behalf accepts nil; construct
// with New to bind a context. Checkers are values and must not be
// copied while in use (Tick mutates the iteration counter).
type Checker struct {
	ctx    context.Context
	done   <-chan struct{}
	stride uint32
	n      uint32
}

// New returns a Checker polling ctx every stride Ticks. A nil ctx or a
// context that can never be cancelled yields a Checker whose Tick is a
// single predictable branch. stride <= 0 means DefaultStride.
func New(ctx context.Context, stride int) Checker {
	if ctx == nil {
		ctx = context.Background()
	}
	if stride <= 0 {
		stride = DefaultStride
	}
	return Checker{ctx: ctx, done: ctx.Done(), stride: uint32(stride)}
}

// Tick counts one loop iteration and, every stride calls, polls the
// bound context, returning ctx.Err() once it is cancelled and nil
// otherwise. On an uncancellable context Tick never returns non-nil and
// costs only the nil tests.
func (c *Checker) Tick() error {
	if c == nil || c.done == nil {
		return nil
	}
	c.n++
	if c.n%c.stride != 0 {
		return nil
	}
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// Err polls the bound context immediately, regardless of stride —
// useful at natural phase boundaries (per heap pop, per improvement
// round) where one select per iteration is already cheap.
func (c *Checker) Err() error {
	if c == nil || c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}
