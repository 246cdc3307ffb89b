package graph

import (
	"runtime"
	"slices"
	"sync"
)

// Parallel full-sort kernel for the stream's packed entries — the
// fallback the lazy EdgeStream uses when a consumer drains deep.
//
// Determinism: the recursion splits at fixed midpoints and the merge is
// stable (ties take from the left run), so the output permutation is a
// pure function of the input regardless of goroutine scheduling — and
// since comparePacked is a strict total order over the entries of a
// simple graph, the result is additionally the unique sorted sequence,
// byte-identical to a serial sort. TestParallelSortEdgesMatchesSerial
// asserts this under -race.

// parallelSortMin is the entry count below which a serial sort always
// wins: goroutine+merge overhead needs thousands of elements to
// amortize. 4096 edges ≈ a 91-terminal complete graph.
const parallelSortMin = 4096

// parallelSort sorts edges in comparePacked order using a parallel
// stable merge sort when the slice is large and GOMAXPROCS allows more
// than one worker; otherwise it falls through to the serial sort.
// Output is byte-identical either way.
func parallelSort(edges []packedEdge) {
	w := runtime.GOMAXPROCS(0)
	if w <= 1 || len(edges) < parallelSortMin {
		slices.SortFunc(edges, comparePacked)
		return
	}
	depth := 0
	for 1<<depth < w {
		depth++
	}
	buf := make([]packedEdge, len(edges))
	parallelMergeSort(edges, buf, depth)
}

// parallelMergeSort sorts a in place, using buf (same length) as merge
// scratch and spawning goroutines down to the given depth.
func parallelMergeSort(a, buf []packedEdge, depth int) {
	if depth <= 0 || len(a) < parallelSortMin {
		slices.SortFunc(a, comparePacked)
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
	mergeRuns(buf, a[:mid], a[mid:])
	copy(a, buf)
}

// mergeRuns merges the sorted runs x and y into dst
// (len(dst) == len(x)+len(y)), taking from x on ties so the merge is
// stable.
func mergeRuns(dst, x, y []packedEdge) {
	k := 0
	for len(x) > 0 && len(y) > 0 {
		if comparePacked(y[0], x[0]) < 0 {
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
