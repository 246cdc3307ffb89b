package core

import "math"

// The engine's own state is O(n) (forest bookkeeping, no path matrix).
// The width pin is for what is still quadratic — the dense scan
// examines up to n(n-1)/2 candidate edges, a count carried in int that
// leaves int32 past n ≈ 65k — and makes any size computation added
// later 64-bit by construction. The blank constant fails to compile on a 32-bit-int
// platform, turning the silent assumption into a build error; the
// intwidth analyzer checks that every hot package carries it.
const _ uint = 1 << 62

// guardVertexIDSpace checks at the construction boundary that vertex
// ids fit the int32 the DFS stacks store them in (see fillUntil) and
// the 32 bits each endpoint gets in the edge stream's packed key.
// Pinned by TestVertexIDSpaceGuard.
func guardVertexIDSpace(n int) {
	if n > math.MaxInt32 {
		panic("core: vertex count exceeds the int32 id space")
	}
}
