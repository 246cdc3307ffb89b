package core

import "math"

// The engine sizes its dense structures with expressions like n*n
// (P-matrix cells) carried out in int. At the target scales those
// exceed int32, so the arithmetic is only safe because int is 64 bits
// on every supported platform. The blank constant fails to compile on
// a 32-bit-int platform, turning the silent assumption into a build
// error; the intwidth analyzer checks that every hot package carries
// it.
const _ uint = 1 << 62

// guardVertexIDSpace checks at the construction boundary that vertex
// ids fit the int32 the DFS stacks store them in (see fillUntil).
// Pinned by TestVertexIDSpaceGuard.
func guardVertexIDSpace(n int) {
	if n > math.MaxInt32 {
		panic("core: vertex count exceeds the int32 id space")
	}
}
