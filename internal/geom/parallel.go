package geom

import "sync"

// Parallel distance-matrix fill. Building the O(n²) matrix is the
// other half of a large-instance construction's setup cost (beside the
// edge stream), and it parallelizes trivially by row.
//
// Determinism: each worker owns a contiguous range of rows, so no two
// goroutines write the same cell, and each cell is m.Dist(pts[i],
// pts[j]) with i < j whichever worker computes it — the same call the
// serial fill makes — so the parallel fill is byte-identical to the
// serial one. Each unordered pair is computed once: the triangle has no
// mirrored half to fill.

// parallelMatrixMin is the node count below which the serial fill
// always wins (goroutine startup dominates).
const parallelMatrixMin = 128

// fillParallel fills dm with w workers. Row i holds n-1-i pairs, so
// the rows are cut into w contiguous ranges of (nearly) equal pair
// count, not of equal row count: the first rows are the longest.
func fillParallel(dm *DistMatrix, pts []Point, m Metric, w int) {
	n := dm.n
	if w > n {
		w = n
	}
	pairs := n * (n - 1) / 2
	var wg sync.WaitGroup
	lo, done := 0, 0
	for g := 1; g <= w; g++ {
		hi := lo
		for hi < n && done < pairs*g/w {
			done += n - 1 - hi
			hi++
		}
		if g == w {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			dm.fillRows(pts, m, lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}
