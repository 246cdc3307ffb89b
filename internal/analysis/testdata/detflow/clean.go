// Fixture: clean idioms, suppressions, and one stale suppression for
// the detflow analyzer. Only the stale directive may produce a (lint)
// diagnostic.
package fixture

import (
	"fmt"
	"math/rand"
	"sort"
)

// KeysSorted is the approved idiom: the append-under-range taint is
// killed by the sort before the value escapes.
func KeysSorted(m map[string]int) []string {
	out := []string{}
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// KeysSortedAcrossCalls sorts a helper's result (through a propagating
// identity call): nothing here leaks, and keysOf's own append is
// reported in helper.go.
func KeysSortedAcrossCalls(m map[string]int) []string {
	out := identity(keysOf(m))
	sort.Strings(out)
	return out
}

// dumpSorted prints only after ordering: no finding.
func dumpSorted(m map[string]int) {
	keys := []string{}
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(keys)
}

// ValuesDeterministic ranges a map but accumulates an order-free
// reduction fed to no sink: map range values themselves are clean,
// only order-sensitive accumulation taints.
func ValuesDeterministic(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// DebugKeys carries a justified suppression: the finding is real but
// accepted, so it must not surface.
func DebugKeys(m map[string]int) []string {
	out := []string{}
	for k := range m {
		//lint:ignore detflow diagnostic-only dump; callers are pinned order-free by TestDebugKeysUnordered
		out = append(out, k)
	}
	return out
}

// SeededDraw draws from a generator seeded by its caller: for a fixed
// seed the draw is fixed.
func SeededDraw(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// stale directive: nothing on the next line produces a detflow
// finding, so the suppression itself must be reported.
//lint:ignore detflow suppressing nothing at all here // want:lint
func alreadyClean() int { return 42 }
