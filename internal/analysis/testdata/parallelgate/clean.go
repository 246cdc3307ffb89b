// Fixture: clean cases for the parallelgate analyzer — none of these
// lines may produce a diagnostic.
package fixture

import (
	"runtime"
	"sync"
)

const parallelMin = 128

// gatedFanOut is the canonical shape: a GOMAXPROCS gate dominating the
// spawn, with the serial arm bypassing it entirely.
func gatedFanOut(rows [][]float64) {
	if w := runtime.GOMAXPROCS(0); w > 1 && len(rows) >= parallelMin {
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(rows); i += w {
					fill(rows[i])
				}
			}(g)
		}
		wg.Wait()
		return
	}
	for i := range rows {
		fill(rows[i])
	}
}

// selfGatedRecursive gates on its own depth budget, serial arm first —
// the shape of a recursive split-and-merge kernel.
func selfGatedRecursive(rows [][]float64, depth int) {
	if depth <= 0 || len(rows) < parallelMin {
		for i := range rows {
			fill(rows[i])
		}
		return
	}
	mid := len(rows) / 2
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		selfGatedRecursive(rows[:mid], depth-1)
	}()
	selfGatedRecursive(rows[mid:], depth-1)
	wg.Wait()
}

// ungatedHelper has no gate of its own, but it is unexported and its
// only callers dominate the call with a worker gate: the geom
// fillParallel shape.
func ungatedHelper(rows [][]float64, w int) {
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(rows); i += w {
				fill(rows[i])
			}
		}(g)
	}
	wg.Wait()
}

// gatedCaller gates the helper call; the serial arm bypasses it.
func gatedCaller(rows [][]float64) {
	if w := runtime.GOMAXPROCS(0); w > 1 && len(rows) >= parallelMin {
		ungatedHelper(rows, w)
		return
	}
	for i := range rows {
		fill(rows[i])
	}
}

// suppressed documents a justified exemption: a background drainer
// that is not a parallel kernel at all.
func suppressed(events chan []float64) {
	//lint:ignore parallelgate fixture: single background drainer, not a fan-out kernel
	go func() {
		for row := range events {
			fill(row)
		}
	}()
}
