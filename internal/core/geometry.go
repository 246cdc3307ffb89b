package core

import "fmt"

// Geometry selects the geometric substrate a construction runs on:
// the materialized O(n²) distance matrix and complete edge list
// (dense), or the on-demand distance oracle and octant neighbor graph
// (sparse). The BKRUS bookkeeping is the same on both; the substrate
// only decides which edges the scan sees. Dense is the historical
// behaviour and stays byte-identical to it; sparse replaces both O(n²)
// structures — matrix and edge list — with O(n) counterparts so
// instances of 10⁵ terminals fit in memory. The zero value is
// GeomAuto.
type Geometry int

const (
	// GeomAuto picks dense for instances of at most SparseThreshold
	// terminals and sparse above — small instances keep the exact
	// historical output, large ones become tractable.
	GeomAuto Geometry = iota
	// GeomDense forces the materialized matrix and complete edge list.
	GeomDense
	// GeomSparse forces the oracle and octant neighbor graph regardless
	// of size.
	GeomSparse
)

// SparseThreshold is the auto-mode crossover: GeomAuto resolves to
// dense at or below this many terminals. 2048 keeps every conformance
// fixture and the serve daemon's default instance cap (MaxPoints =
// 2048) on the dense path, while a 2048-terminal matrix (32 MiB) is
// about the largest worth materializing per instance.
const SparseThreshold = 2048

// String returns the mode's conventional name.
func (g Geometry) String() string {
	switch g {
	case GeomAuto:
		return "auto"
	case GeomDense:
		return "dense"
	case GeomSparse:
		return "sparse"
	default:
		return fmt.Sprintf("Geometry(%d)", int(g))
	}
}

// Sparse resolves the mode for an n-terminal instance: true means the
// construction runs on the sparse substrate.
func (g Geometry) Sparse(n int) bool {
	switch g {
	case GeomSparse:
		return true
	case GeomDense:
		return false
	default:
		return n > SparseThreshold
	}
}
