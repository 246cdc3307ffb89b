// Fixture: true positives for the detflow analyzer (type-checked as if
// it were a construction package). Lines marked `want:detflow` must
// each produce exactly one diagnostic.
package fixture

import (
	"fmt"
	"math/rand"
	"time"
)

// KeysUnsorted leaks map-iteration order through its exported return:
// the slice is accumulated under a map range and never sorted. The
// finding lands on the accumulating append.
func KeysUnsorted(m map[string]int) []string {
	out := []string{}
	for k := range m {
		out = append(out, k) // want:detflow
	}
	return out
}

// KeysViaHelper leaks the same order through keysOf (see helper.go),
// whose unsorted append carries the finding: map order is reported
// where it accumulates, not propagated to this return.
func KeysViaHelper(m map[string]int) []string {
	return keysOf(m)
}

// FirstWinner returns whichever channel happened to be ready first —
// a select winner is scheduler-ordered, not input-ordered.
func FirstWinner(a, b chan int) int {
	var v int
	select {
	case v = <-a:
	case v = <-b:
	}
	return v // want:detflow
}

// Stamp returns a wall-clock read from a deterministic package.
func Stamp() string {
	return time.Now().String() // want:detflow
}

// Describe formats a pointer: the address differs across runs.
func Describe(n *node) string {
	return fmt.Sprintf("%p", n) // want:detflow
}

// dumpKeys is unexported, so its return is nobody's contract — but the
// print writes map-ordered bytes to output, accumulated by the append.
func dumpKeys(m map[string]int) {
	keys := []string{}
	for k := range m {
		keys = append(keys, k) // want:detflow
	}
	fmt.Println(keys)
}

// nestedRanges accumulates under two map ranges: one finding, against
// the inner range.
func nestedRanges(m map[string]map[string]int) []string {
	var out []string
	for _, inner := range m {
		for k := range inner {
			out = append(out, k) // want:detflow
		}
	}
	return out
}

// ClockSeededDraw seeds its generator from the wall clock, so the draw
// differs between runs.
func ClockSeededDraw() float64 {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return rng.Float64() // want:detflow
}

// GlobalDraw reads the process-wide source, which is seeded at random.
func GlobalDraw() float64 {
	return rand.Float64() // want:detflow
}

type node struct{ next *node }
