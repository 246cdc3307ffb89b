package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/inst"
)

// goldenCounts is the part of BuildStats that records the scan order:
// which edges were examined, why each was rejected, and how many
// members the (3-b) witness scans read.
type goldenCounts struct {
	examined, cycle, bound, merges, scans int
}

// latticeInstance is a side×side integer lattice under L1 with the
// source at its centre: integer distances tie everywhere, so many
// members share a witness base and the scan order among them is
// whatever the witness-order sort leaves.
func latticeInstance(side int) *inst.Instance {
	src := geom.Point{X: float64(side / 2), Y: float64(side / 2)}
	var sinks []geom.Point
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if p := (geom.Point{X: float64(i), Y: float64(j)}); p != src {
				sinks = append(sinks, p)
			}
		}
	}
	return inst.MustNew(src, sinks, geom.Manhattan)
}

// TestGoldenCounters pins the scan counters of one dense and one sparse
// random instance at three bounds, and of a tie-heavy lattice on both
// substrates. The bookkeeping may be restructured freely — which state
// is kept, how the witness DFS is paced, how the witness order is
// sorted — but the scan must read the same members in the same order,
// so these figures must not move.
func TestGoldenCounters(t *testing.T) {
	random := func(nodes int) *inst.Instance {
		return randomInstance(rand.New(rand.NewSource(int64(nodes))), nodes-1, 1000)
	}
	cases := []struct {
		name string
		in   func() *inst.Instance
		geo  Geometry
		eps  float64
		want goldenCounts
	}{
		{"n=500", func() *inst.Instance { return random(500) }, GeomDense, 0.1, goldenCounts{52746, 36463, 15784, 499, 30719}},
		{"n=500", func() *inst.Instance { return random(500) }, GeomDense, 0.5, goldenCounts{2390, 1877, 14, 499, 787}},
		{"n=500", func() *inst.Instance { return random(500) }, GeomDense, 2, goldenCounts{2390, 1891, 0, 499, 447}},
		{"n=3000", func() *inst.Instance { return random(3000) }, GeomSparse, 0.1, goldenCounts{19292, 15003, 1290, 2999, 13766}},
		{"n=3000", func() *inst.Instance { return random(3000) }, GeomSparse, 0.5, goldenCounts{18674, 14785, 890, 2999, 17834}},
		{"n=3000", func() *inst.Instance { return random(3000) }, GeomSparse, 2, goldenCounts{9864, 6865, 0, 2999, 2891}},
		{"lattice30", func() *inst.Instance { return latticeInstance(30) }, GeomDense, 0.1, goldenCounts{60794, 56306, 3589, 899, 4868}},
		{"lattice30", func() *inst.Instance { return latticeInstance(30) }, GeomSparse, 0.1, goldenCounts{4028, 2861, 268, 899, 3500}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s/eps=%g", tc.geo, tc.name, tc.eps), func(t *testing.T) {
			in := tc.in()
			c := NewCounters(nil)
			if _, err := BKRUSBuild(context.Background(), in, UpperOnly(in, tc.eps), Config{Counters: c, Geometry: tc.geo}); err != nil {
				t.Fatal(err)
			}
			s := c.stats()
			got := goldenCounts{s.EdgesExamined, s.CycleRejections, s.BoundRejections, s.Merges, s.WitnessScans}
			if got != tc.want {
				t.Errorf("counters %+v, want %+v", got, tc.want)
			}
		})
	}
}
