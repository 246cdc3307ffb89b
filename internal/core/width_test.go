package core

import (
	"math"
	"testing"
)

// TestVertexIDSpaceGuard pins the invariant behind the int32 vertex-id
// conversions in startFill and fillUntil (see the intwidth suppressions in
// forest.go): ids fit int32 because newEngine refuses larger vertex
// counts at the boundary.
func TestVertexIDSpaceGuard(t *testing.T) {
	guardVertexIDSpace(0)
	guardVertexIDSpace(math.MaxInt32) // the largest admissible count

	defer func() {
		if recover() == nil {
			t.Fatalf("guardVertexIDSpace(MaxInt32+1) did not panic")
		}
	}()
	guardVertexIDSpace(math.MaxInt32 + 1)
}
