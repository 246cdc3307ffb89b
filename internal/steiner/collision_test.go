package steiner

import (
	"math/rand"
	"testing"
)

// TestCollisionIdxPaired pins the invariant tryEmbed relies on:
// firstCollisionIdx and lastCollisionIdx scan the same interior range
// of a path, so one returns -1 exactly when the other does —
// path[lastCollisionIdx(path)] inside a firstCollisionIdx(path) != -1
// branch cannot index with -1.
func TestCollisionIdxPaired(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(8) // path lengths 0..7 cover empty and no-interior shapes
		path := make([]int, n)
		inForest := make([]bool, 8)
		for i := range path {
			path[i] = rng.Intn(len(inForest))
		}
		for i := range inForest {
			inForest[i] = rng.Intn(3) == 0
		}
		b := &builder{inForest: inForest}
		first := b.firstCollisionIdx(path)
		last := b.lastCollisionIdx(path)
		if (first == -1) != (last == -1) {
			t.Fatalf("path %v forest %v: firstCollisionIdx=%d lastCollisionIdx=%d disagree on existence",
				path, inForest, first, last)
		}
		if first != -1 && (last < first || last >= len(path)-1) {
			t.Fatalf("path %v forest %v: lastCollisionIdx=%d out of range [first=%d, len-2]",
				path, inForest, last, first)
		}
	}
}
