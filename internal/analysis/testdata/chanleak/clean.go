// Fixture: clean idioms the chanleak analyzer must stay silent on,
// plus one stale suppression (want:lint).
package fixture

// RangeWorkerClean is the worker-pool idiom: the spawner closes the
// work channel on every path, so the worker's range loop always
// terminates, and it drains the result channel unconditionally.
func RangeWorkerClean(items []float64) float64 {
	next := make(chan int)
	done := make(chan float64)
	go func() {
		t := 0.0
		for i := range next {
			t += items[i]
		}
		done <- t
	}()
	for i := range items {
		next <- i
	}
	close(next)
	return <-done
}

// SelectDefaultClean spawns a goroutine that can always bail through
// the default case: no blocking obligation arises.
func SelectDefaultClean() {
	ch := make(chan int)
	go func() {
		select {
		case ch <- 1:
		default:
		}
	}()
}

// ChainClean hands the channel to a helper in another file that
// provably receives on it: the pairing crosses the call through the
// module-wide op summary.
func ChainClean() int {
	ch := make(chan int)
	go func() {
		ch <- 1
	}()
	return drain(ch)
}

// StaleSuppression spawns a sender the unconditional receive below
// already pairs; the suppression is therefore unused and must be
// reported.
func StaleSuppression() int {
	ch := make(chan int)
	//lint:ignore chanleak suppressing a spawn the receive below already pairs // want:lint
	go func() {
		ch <- 5
	}()
	return <-ch
}
