package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/obs"
)

// goldenCounts is the part of the core counters that records the scan order:
// which edges were examined, why each was rejected, and how many live
// members the (3-b) witness scans read — plus where the edge stream's
// partition frontier ran: how many sorted batches it produced and
// whether it fell back to one whole-tail sort.
type goldenCounts struct {
	examined, cycle, bound, merges, scans int
	batches, fallbacks                    int
}

// latticeInstance is a side×side integer lattice under L1 with the
// source at its centre: integer distances tie everywhere, so many
// members share a witness base and many members tie at the bound.
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
// is kept, how the witness DFS is paced — but the scan must examine,
// reject and accept the same edges, so these figures must not move.
// The scans column counts the live members the witness scans read, in
// live-list order: a different list order decides every scan the same
// way but moves this column and no other. The stream figures pin the
// batch boundaries: the stream's entry type and sort routines may
// change, but its partition (pivot rule, batch size, fallback rule) may
// not.
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
		{"n=500", func() *inst.Instance { return random(500) }, GeomDense, 0.1, goldenCounts{52746, 36463, 15784, 499, 27163, 383, 0}},
		{"n=500", func() *inst.Instance { return random(500) }, GeomDense, 0.5, goldenCounts{2390, 1877, 14, 499, 791, 14, 0}},
		{"n=500", func() *inst.Instance { return random(500) }, GeomDense, 2, goldenCounts{2390, 1891, 0, 499, 447, 14, 0}},
		{"n=3000", func() *inst.Instance { return random(3000) }, GeomSparse, 0.1, goldenCounts{19292, 15003, 1290, 2999, 12613, 75, 1}},
		{"n=3000", func() *inst.Instance { return random(3000) }, GeomSparse, 0.5, goldenCounts{18674, 14785, 890, 2999, 17778, 75, 1}},
		{"n=3000", func() *inst.Instance { return random(3000) }, GeomSparse, 2, goldenCounts{9864, 6865, 0, 2999, 2891, 75, 1}},
		{"lattice30", func() *inst.Instance { return latticeInstance(30) }, GeomDense, 0.1, goldenCounts{60794, 56306, 3589, 899, 4563, 508, 0}},
		{"lattice30", func() *inst.Instance { return latticeInstance(30) }, GeomSparse, 0.1, goldenCounts{4028, 2861, 268, 899, 3345, 13, 1}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s/eps=%g", tc.geo, tc.name, tc.eps), func(t *testing.T) {
			in := tc.in()
			c := NewCounters(nil)
			if _, err := BKRUSBuild(context.Background(), in, UpperOnly(in, tc.eps), Config{Counters: c, Geometry: tc.geo}); err != nil {
				t.Fatal(err)
			}
			l := func(ctr *obs.Counter) int { return int(ctr.Load()) }
			got := goldenCounts{l(c.EdgesExamined), l(c.CycleRejections), l(c.BoundRejections), l(c.Merges), l(c.WitnessScans), l(c.StreamBatches), l(c.StreamFallbacks)}
			if got != tc.want {
				t.Errorf("counters %+v, want %+v", got, tc.want)
			}
		})
	}
}
