// Fixture: map-order clean cases for the detflow analyzer — none of
// these lines may produce a diagnostic.
package fixture

import "sort"

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // sorted below: the approved idiom
	}
	sort.Strings(out)
	return out
}

func sortSliceAfter(m map[int]float64) []float64 {
	var ws []float64
	for _, w := range m {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}

func intAccumulation(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v // integer addition is associative: order cannot leak
	}
	return s
}

func mapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func innerSlice(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		local := append([]int(nil), vs...) // local slice dies inside the loop body
		n += len(local)
	}
	return n
}

func sliceRange(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // slice iteration is ordered
	}
	return out
}
