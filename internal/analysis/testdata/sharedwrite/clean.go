// Fixture: clean cases for the sharedwrite analyzer — none of these
// lines may produce a diagnostic.
package fixture

import "sync"

// disjointSlots: each worker owns the slot named by its argument.
func disjointSlots(rows [][]float64, out []float64) {
	var wg sync.WaitGroup
	wg.Add(len(rows))
	for i := range rows {
		go func(i int) {
			defer wg.Done()
			out[i] = sumClean(rows[i])
		}(i)
	}
	wg.Wait()
}

// stridedSlots: worker g owns every w-th row — the fillParallel shape.
func stridedSlots(rows [][]float64, out []float64, w int) {
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(rows); i += w {
				out[i] = sumClean(rows[i])
			}
		}(g)
	}
	wg.Wait()
}

// channelFunnel: results travel through a channel; the send is the
// synchronization.
func channelFunnel(rows [][]float64) float64 {
	res := make(chan float64, len(rows))
	for i := range rows {
		go func(i int) {
			res <- sumClean(rows[i])
		}(i)
	}
	total := 0.0
	for range rows {
		total += <-res
	}
	return total
}

// mutexGuarded: the accumulator write is under a lock.
func mutexGuarded(rows [][]float64) float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	total := 0.0
	wg.Add(len(rows))
	for i := range rows {
		go func(i int) {
			defer wg.Done()
			s := sumClean(rows[i])
			mu.Lock()
			total += s
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return total
}

// localOnly mutates goroutine-local state; captures are read-only.
func localOnly(rows [][]float64, res chan float64) {
	for i := range rows {
		go func(i int) {
			t := 0.0
			for _, v := range rows[i] {
				t += v
			}
			res <- t
		}(i)
	}
}

// suppressed documents a justified exemption: a single writer that the
// spawner joins before reading.
func suppressed(row []float64, out *float64, done chan struct{}) {
	go func() {
		//lint:ignore sharedwrite fixture: single goroutine, joined via done before any read
		*out = sumClean(row)
		close(done)
	}()
}

// spawnRanges runs work(g, cut[g], cut[g+1]) for every range g on its
// own goroutine — the geom.fanOut shape: a function literal passed as
// work is a goroutine body.
func spawnRanges(cut []int, work func(g, lo, hi int)) {
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

// forRanges passes its work on to spawnRanges: work runs on another
// goroutine here too.
func forRanges(cut []int, work func(g, lo, hi int)) {
	spawnRanges(cut, func(g, lo, hi int) { work(g, lo, hi) })
}

// inline runs work on the calling goroutine.
func inline(cut []int, work func(g, lo, hi int)) {
	for g := 0; g+1 < len(cut); g++ {
		work(g, cut[g], cut[g+1])
	}
}

// spawnedSlots: each spawned worker owns the slot of its range index.
func spawnedSlots(rows [][]float64, cut []int, out []float64) {
	spawnRanges(cut, func(g, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[g] += sumClean(rows[i])
		}
	})
	forRanges(cut, func(g, lo, hi int) {
		out[g] = float64(hi - lo)
	})
}

// inlineAccumulate: a literal that runs on the caller's goroutine may
// write what it captures.
func inlineAccumulate(rows [][]float64, cut []int) float64 {
	total := 0.0
	inline(cut, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			total += sumClean(rows[i])
		}
	})
	return total
}

func sumClean(row []float64) float64 {
	t := 0.0
	for _, v := range row {
		t += v
	}
	return t
}
