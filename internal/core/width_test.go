package core

import (
	"math"
	"testing"
)

// TestVertexIDSpaceGuard pins the invariant behind the forest's int32
// ids: Forest.Reset refuses vertex counts whose largest half-edge id,
// 2(n−1)−1, would leave int32, so id32 never fails on a forest's ids.
func TestVertexIDSpaceGuard(t *testing.T) {
	guardVertexIDSpace(0)
	guardVertexIDSpace(maxVertices) // the largest admissible count
	if top := 2*(maxVertices-1) - 1; top > math.MaxInt32 {
		t.Fatalf("largest half-edge id %d of an admissible forest exceeds int32", top)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("guardVertexIDSpace(maxVertices+1)", func() { guardVertexIDSpace(maxVertices + 1) })
	mustPanic("id32(MaxInt32+1)", func() { id32(math.MaxInt32 + 1) })
	mustPanic("id32(-1)", func() { id32(-1) })
	if id32(math.MaxInt32) != math.MaxInt32 {
		t.Fatalf("id32(MaxInt32) did not round-trip")
	}
}
