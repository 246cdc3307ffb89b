package geom

import "sync"

// Row-parallel distance-matrix fill. Building the O(n²) matrix is the
// other half of a large-instance construction's setup cost (beside the
// edge sort), and it parallelizes trivially by row.
//
// Determinism: each worker owns whole rows, so no two goroutines write
// the same cell, and each cell's value is m.Dist of the same two points
// regardless of which worker computes it — Manhattan takes math.Abs of
// dx and -dx identically, Euclidean's math.Hypot is symmetric in sign —
// so the parallel fill is byte-identical to the serial one. The cost is
// that each unordered pair is computed twice (once per row); races and
// a serial mirror pass would cost more than the duplicate arithmetic.

// parallelMatrixMin is the node count below which the serial
// upper-triangle fill always wins (goroutine startup dominates).
const parallelMatrixMin = 128

// fillParallel fills dm with w workers, each owning every w-th row.
// Strided assignment balances the load exactly because every full row
// costs the same n-1 distance evaluations.
func fillParallel(dm *DistMatrix, pts []Point, m Metric, w int) {
	n := dm.n
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w {
				row := dm.d[i*n : (i+1)*n]
				pi := pts[i]
				for j, pj := range pts {
					if j != i {
						row[j] = m.Dist(pi, pj)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
