// Fixture: map-order true positives for the detflow analyzer. Lines
// marked `want:detflow` must each produce exactly one diagnostic at
// that file:line.
package fixture

import "fmt"

func unsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want:detflow
	}
	return out
}

func printsDirectly(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want:detflow
	}
}

func floatAccumulation(m map[int]float64) float64 {
	var wirelength float64
	for _, w := range m {
		wirelength += w // want:detflow
	}
	return wirelength
}

type edgeList struct{ edges []int }

func fieldAppend(l *edgeList, m map[int]bool) {
	for v := range m {
		l.edges = append(l.edges, v) // want:detflow
	}
}
