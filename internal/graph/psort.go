package graph

import (
	"runtime"
	"sync"
)

// Parallel full-sort kernel for edge lists — the fallback the lazy
// EdgeStream uses when a consumer drains deep, and a drop-in for any
// eager full sort of a large edge set.
//
// Determinism: the recursion splits at fixed midpoints and the merge is
// stable (ties take from the left run), so the output permutation is a
// pure function of the input regardless of goroutine scheduling — and
// since edgeLess is a strict total order over complete-graph edges, the
// result is additionally the unique sorted sequence, byte-identical to
// SortEdges. The conformance suite asserts this under -race.

// parallelSortMin is the edge count below which a serial sort always
// wins: goroutine+merge overhead needs thousands of elements to
// amortize. 4096 edges ≈ a 91-terminal complete graph.
const parallelSortMin = 4096

// ParallelSortEdges sorts edges in the canonical SortEdges order using
// a parallel stable merge sort when the slice is large and GOMAXPROCS
// allows more than one worker; otherwise it falls through to the serial
// sort. Output is byte-identical to SortEdges either way.
func ParallelSortEdges(edges []Edge) {
	w := runtime.GOMAXPROCS(0)
	if w <= 1 || len(edges) < parallelSortMin {
		SortEdges(edges)
		return
	}
	depth := 0
	for 1<<depth < w {
		depth++
	}
	buf := make([]Edge, len(edges))
	parallelMergeSort(edges, buf, depth)
}

// parallelMergeSort sorts a in place, using buf (same length) as merge
// scratch and spawning goroutines down to the given depth.
func parallelMergeSort(a, buf []Edge, depth int) {
	if depth <= 0 || len(a) < parallelSortMin {
		SortEdges(a)
		return
	}
	mid := len(a) / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		parallelMergeSort(a[:mid], buf[:mid], depth-1)
	}()
	parallelMergeSort(a[mid:], buf[mid:], depth-1)
	wg.Wait()
	mergeEdges(buf, a[:mid], a[mid:])
	copy(a, buf)
}

// mergeEdges merges the sorted runs x and y into dst
// (len(dst) == len(x)+len(y)), taking from x on ties so the merge is
// stable.
func mergeEdges(dst, x, y []Edge) {
	k := 0
	for len(x) > 0 && len(y) > 0 {
		if edgeLess(y[0], x[0]) {
			dst[k] = y[0]
			y = y[1:]
		} else {
			dst[k] = x[0]
			x = x[1:]
		}
		k++
	}
	copy(dst[k:], x)
	copy(dst[k+len(x):], y)
}
