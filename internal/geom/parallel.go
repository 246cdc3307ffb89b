package geom

import (
	"runtime"
	"sync"
)

// The parallel kernels of geom: the distance-matrix fill and the octant
// index search. Both split independent work into contiguous ranges, one
// goroutine per range, through fanOut, the package's only go statement.
//
// Determinism: each worker owns its range's output slots (matrix rows,
// or the octant tables of a range of points), so no two goroutines write
// the same cell, and each slot is computed by the same code the serial
// path runs, so the parallel result is byte-identical to the serial one.
// Per-worker effort counters are summed after the barrier; integer sums
// do not depend on the order.

// parallelMatrixMin is the node count below which the matrix fill stays
// serial (goroutine startup dominates; DESIGN.md §14.2).
const parallelMatrixMin = 128

// parallelIndexMin is the point count below which the octant search
// stays serial: on a 2-vCPU host two workers lost at 64 uniform points,
// were mixed at 96 and won from 128 on (DESIGN.md §14.2).
const parallelIndexMin = 128

// workersFor returns the worker count of a kernel over n items that
// stays serial below gate items: runtime.GOMAXPROCS(0), or 1 below it.
func workersFor(n, gate int) int {
	if n < gate {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut runs work(g, cut[g], cut[g+1]) for every range g, each on its
// own goroutine, and returns once all of them have returned.
func fanOut(cut []int, work func(g, lo, hi int)) {
	var wg sync.WaitGroup
	for g := 0; g+1 < len(cut); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			work(g, cut[g], cut[g+1])
		}(g)
	}
	wg.Wait()
}

// fill computes the triangle with w workers (1 is the serial fill).
// Row i holds n-1-i pairs, so the rows are cut into w contiguous ranges
// of (nearly) equal pair count, not of equal row count: the first rows
// are the longest.
func (dm *DistMatrix) fill(pts []Point, m Metric, w int) {
	n := dm.n
	if w > n {
		w = n
	}
	if w > 1 {
		pairs := n * (n - 1) / 2
		cut := make([]int, w+1)
		hi, done := 0, 0
		for g := 1; g < w; g++ {
			for hi < n && done < pairs*g/w {
				done += n - 1 - hi
				hi++
			}
			cut[g] = hi
		}
		cut[w] = n
		fanOut(cut, func(_, lo, hi int) {
			dm.fillRows(pts, m, lo, hi)
		})
		return
	}
	dm.fillRows(pts, m, 0, n)
}
