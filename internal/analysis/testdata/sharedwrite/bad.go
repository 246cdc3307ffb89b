// Fixture: true positives for the sharedwrite analyzer. Lines marked
// `want:sharedwrite` must each produce exactly one diagnostic.
package fixture

import "sync"

// sharedSlot: every worker writes the same captured slice element.
func sharedSlot(rows [][]float64, out []float64) {
	var wg sync.WaitGroup
	wg.Add(len(rows))
	for i := range rows {
		go func(i int) {
			defer wg.Done()
			out[0] = out[0] + sum(rows[i]) // want:sharedwrite
		}(i)
	}
	wg.Wait()
}

// mapWrite: maps are never safe for concurrent mutation.
func mapWrite(rows [][]float64, totals map[int]float64) {
	var wg sync.WaitGroup
	wg.Add(len(rows))
	for i := range rows {
		go func(i int) {
			defer wg.Done()
			totals[0] = sum(rows[i]) // want:sharedwrite
		}(i)
	}
	wg.Wait()
}

// scalarAccumulate: racy read-modify-write of a captured accumulator.
func scalarAccumulate(rows [][]float64) float64 {
	total := 0.0
	var wg sync.WaitGroup
	wg.Add(len(rows))
	for i := range rows {
		go func(i int) {
			defer wg.Done()
			total += sum(rows[i]) // want:sharedwrite
		}(i)
	}
	wg.Wait()
	return total
}

// loopVarCapture reads the loop variable instead of taking it as an
// argument.
func loopVarCapture(rows [][]float64, out []float64) {
	var wg sync.WaitGroup
	wg.Add(len(rows))
	for i := range rows {
		go func() { // want:sharedwrite
			defer wg.Done()
			out[i] = sum(rows[i])
		}()
	}
	wg.Wait()
}

// spawnedAccumulate: the literal runs on spawnRanges's goroutines, so
// the captured accumulator is written concurrently.
func spawnedAccumulate(rows [][]float64, cut []int) float64 {
	total := 0.0
	spawnRanges(cut, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			total += sum(rows[i]) // want:sharedwrite
		}
	})
	return total
}

// forwardedSharedSlot: forRanges hands the literal on to spawnRanges,
// and every worker writes the same slot.
func forwardedSharedSlot(rows [][]float64, cut []int, out []float64) {
	forRanges(cut, func(_, lo, hi int) {
		out[0] = sum(rows[lo]) // want:sharedwrite
	})
}

// counters: the workers' counts land in fields of one captured struct.
type counters struct{ probes int64 }

func spawnedFieldWrite(cut []int, c *counters) {
	spawnRanges(cut, func(g, lo, hi int) {
		c.probes += int64(hi - lo) // want:sharedwrite
	})
}

func sum(row []float64) float64 {
	t := 0.0
	for _, v := range row {
		t += v
	}
	return t
}
