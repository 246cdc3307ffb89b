// Fixture helpers: the taint summaries must carry facts from this file
// into findings reported in bad.go / clean.go.
package fixture

// keysOf accumulates map order into an unsorted slice: the finding is
// this append, whichever caller later sorts or leaks the result.
func keysOf(m map[string]int) []string {
	out := []string{}
	for k := range m {
		out = append(out, k) // want:detflow
	}
	return out
}

// identity propagates whatever taint its argument carries.
func identity(s []string) []string { return s }
