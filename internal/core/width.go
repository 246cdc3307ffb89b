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

// maxVertices is the largest vertex count a construction accepts: the
// forest's arena holds 2(n−1) half-edges, whose ids must fit the int32
// it links them with, as must the vertex ids themselves (the DFS stack,
// the live lists) and the 32 bits each endpoint gets in the edge
// stream's packed key.
const maxVertices = 1 << 30

// guardVertexIDSpace checks at the construction boundary that vertex
// and half-edge ids fit the int32 the forest stores them in (see
// maxVertices). Pinned by TestVertexIDSpaceGuard.
func guardVertexIDSpace(n int) {
	if n > maxVertices {
		panic("core: vertex count exceeds the int32 id space")
	}
}

// id32 narrows a vertex or half-edge id to the int32 the forest stores
// it in. guardVertexIDSpace keeps every id a forest produces in range,
// so the check fails only on a bug.
func id32(x int) int32 {
	if x < 0 || x > math.MaxInt32 {
		panic("core: id outside the int32 id space")
	}
	return int32(x)
}
