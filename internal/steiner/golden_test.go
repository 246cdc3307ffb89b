package steiner

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/inst"
)

// bkstGolden is everything a BKST build decides: its outcome, the eight
// steiner counters, the cost's bits and a digest of the edge list in
// construction order.
type bkstGolden struct {
	err                                         string
	examined, rejected, embeds, collisions, pts int64
	fallbacks, mazes, jumpers                   int64
	costBits, edges                             uint64
}

func (g bkstGolden) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %d, %d, %d, %#x, %#x}",
		g.err, g.examined, g.rejected, g.embeds, g.collisions, g.pts,
		g.fallbacks, g.mazes, g.jumpers, g.costBits, g.edges)
}

// floatL1Instance places sinks and source uniformly at float
// coordinates under L1, so path sums round and near-ties are rare.
func floatL1Instance(seed int64, sinks int) *inst.Instance {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, sinks)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return inst.MustNew(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, pts, geom.Manhattan)
}

// latticeL1Instance is a side×side integer lattice with the source at
// its centre: distances tie everywhere.
func latticeL1Instance(side int) *inst.Instance {
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

func runGolden(in *inst.Instance, bounds core.Bounds, planar bool) bkstGolden {
	c := NewCounters(nil)
	st, err := BKSTBuild(context.Background(), in, bounds, Config{Counters: c, Planar: planar})
	g := bkstGolden{
		examined:   c.CandidatesExamined.Load(),
		rejected:   c.BoundRejections.Load(),
		embeds:     c.Embeds.Load(),
		collisions: c.EmbedCollisions.Load(),
		pts:        c.SteinerPointsAdded.Load(),
		fallbacks:  c.FallbackConnects.Load(),
		mazes:      c.MazeRoutes.Load(),
		jumpers:    c.JumperWires.Load(),
	}
	if err != nil {
		g.err = err.Error()
		return g
	}
	g.costBits = math.Float64bits(st.Cost())
	h := fnv.New64a()
	for _, e := range st.Edges() {
		fmt.Fprintf(h, "%d-%d:%x;", e.U, e.V, math.Float64bits(e.W))
	}
	g.edges = h.Sum64()
	return g
}

// TestBKSTGolden pins what BKST, BKSTLU (lower bound 0.3·R) and
// BKSTPlanar build on fixed float, lattice and paper instances at
// ε ∈ {0, 0.3, 2}. The builder's bookkeeping may be restructured, but
// the candidates it examines, the paths it embeds and the tree it
// returns must not change.
func TestBKSTGolden(t *testing.T) {
	instances := []struct {
		name string
		in   *inst.Instance
	}{
		{"float8", floatL1Instance(8, 8)},
		{"float24", floatL1Instance(24, 24)},
		{"float60", floatL1Instance(60, 60)},
		{"lattice5", latticeL1Instance(5)},
		{"p1", bench.P1()},
		{"p2", bench.P2()},
	}
	for _, tc := range instances {
		for _, eps := range []float64{0, 0.3, 2} {
			variants := []struct {
				name   string
				bounds core.Bounds
				planar bool
			}{
				{"bkst", core.UpperOnly(tc.in, eps), false},
				{"bkstlu", core.LowerUpper(tc.in, 0.3, eps), false},
				{"planar", core.UpperOnly(tc.in, eps), true},
			}
			for _, v := range variants {
				key := fmt.Sprintf("%s/%s/eps=%g", tc.name, v.name, eps)
				got := runGolden(tc.in, v.bounds, v.planar)
				want, ok := bkstGoldenWant[key]
				if !ok {
					t.Errorf("%s: no golden value; got %v", key, got)
					continue
				}
				if got != want {
					t.Errorf("%s: got %v, want %v", key, got, want)
				}
			}
		}
	}
}

// bkstGoldenWant was recorded on the builder that kept a pairwise path
// map, before the builder moved onto core.Forest.
var bkstGoldenWant = map[string]bkstGolden{
	"float8/bkst/eps=0":       {"", 104, 11, 8, 0, 21, 0, 0, 0, 0x4070d2172365a260, 0x15d9d2ea18722a49},
	"float8/bkstlu/eps=0":     {"", 108, 12, 8, 0, 20, 0, 0, 0, 0x40700978160063ad, 0x1aced19e76fd902c},
	"float8/planar/eps=0":     {"", 104, 11, 8, 0, 21, 0, 0, 0, 0x4070d2172365a260, 0x15d9d2ea18722a49},
	"float8/bkst/eps=0.3":     {"", 44, 0, 8, 0, 17, 0, 0, 0, 0x406adf9fedebc906, 0x71aa38abf524fc60},
	"float8/bkstlu/eps=0.3":   {"", 56, 2, 8, 0, 17, 0, 0, 0, 0x406adf9fedebc906, 0xada2bc4be339a32e},
	"float8/planar/eps=0.3":   {"", 44, 0, 8, 0, 17, 0, 0, 0, 0x406adf9fedebc906, 0x71aa38abf524fc60},
	"float8/bkst/eps=2":       {"", 44, 0, 8, 0, 17, 0, 0, 0, 0x406adf9fedebc906, 0x71aa38abf524fc60},
	"float8/bkstlu/eps=2":     {"", 56, 2, 8, 0, 17, 0, 0, 0, 0x406adf9fedebc906, 0xada2bc4be339a32e},
	"float8/planar/eps=2":     {"", 44, 0, 8, 0, 17, 0, 0, 0, 0x406adf9fedebc906, 0x71aa38abf524fc60},
	"float24/bkst/eps=0":      {"", 1812, 698, 24, 0, 106, 0, 0, 0, 0x407b358a4a818c6b, 0x2fca662fe8f4c114},
	"float24/bkstlu/eps=0":    {"", 1812, 698, 24, 0, 106, 0, 0, 0, 0x407b358a4a818c6b, 0x2fca662fe8f4c114},
	"float24/planar/eps=0":    {"", 1812, 698, 24, 0, 106, 0, 0, 0, 0x407b358a4a818c6b, 0x2fca662fe8f4c114},
	"float24/bkst/eps=0.3":    {"", 928, 142, 24, 0, 95, 0, 0, 0, 0x4078f6f1027c571c, 0xd27f3c0f8db638af},
	"float24/bkstlu/eps=0.3":  {"", 928, 142, 24, 0, 95, 0, 0, 0, 0x4078f6f1027c571c, 0xd27f3c0f8db638af},
	"float24/planar/eps=0.3":  {"", 928, 142, 24, 0, 95, 0, 0, 0, 0x4078f6f1027c571c, 0xd27f3c0f8db638af},
	"float24/bkst/eps=2":      {"", 798, 0, 24, 0, 94, 0, 0, 0, 0x4077ed61b787148f, 0xad46ff17b121e8bc},
	"float24/bkstlu/eps=2":    {"", 798, 0, 24, 0, 94, 0, 0, 0, 0x4077ed61b787148f, 0xad46ff17b121e8bc},
	"float24/planar/eps=2":    {"", 798, 0, 24, 0, 94, 0, 0, 0, 0x4077ed61b787148f, 0xad46ff17b121e8bc},
	"float60/bkst/eps=0":      {"", 75968, 44075, 59, 661, 410, 1, 0, 1, 0x4087b2823aead1be, 0xd84d89d66e6287fd},
	"float60/bkstlu/eps=0":    {"", 67836, 43126, 58, 46, 400, 2, 0, 2, 0x40880c4bc2893842, 0x860bc95057f00577},
	"float60/planar/eps=0":    {"steiner: could not build a Steiner tree within the bound", 75968, 44075, 60, 661, 449, 1, 1, 0, 0x0, 0x0},
	"float60/bkst/eps=0.3":    {"", 2360, 7, 60, 0, 390, 0, 0, 0, 0x408379c1fa2b037b, 0xd575bf0a25fd4180},
	"float60/bkstlu/eps=0.3":  {"", 7675, 52, 60, 1, 405, 0, 0, 0, 0x40846e8331808e41, 0xc10999b2b2e2e2c5},
	"float60/planar/eps=0.3":  {"", 2360, 7, 60, 0, 390, 0, 0, 0, 0x408379c1fa2b037b, 0xd575bf0a25fd4180},
	"float60/bkst/eps=2":      {"", 1769, 0, 60, 0, 389, 0, 0, 0, 0x4083671950d89d5a, 0x5e114767efbddb1b},
	"float60/bkstlu/eps=2":    {"", 7675, 52, 60, 1, 405, 0, 0, 0, 0x40846e8331808e41, 0xc10999b2b2e2e2c5},
	"float60/planar/eps=2":    {"", 1769, 0, 60, 0, 389, 0, 0, 0, 0x4083671950d89d5a, 0x5e114767efbddb1b},
	"lattice5/bkst/eps=0":     {"", 36, 6, 24, 0, 0, 0, 0, 0, 0x4038000000000000, 0x9d21a3dfdc3f2d4f},
	"lattice5/bkstlu/eps=0":   {"steiner: could not build a Steiner tree within the bound", 304, 236, 24, 4, 0, 4, 4, 0, 0x0, 0x0},
	"lattice5/planar/eps=0":   {"", 36, 6, 24, 0, 0, 0, 0, 0, 0x4038000000000000, 0x9d21a3dfdc3f2d4f},
	"lattice5/bkst/eps=0.3":   {"", 36, 6, 24, 0, 0, 0, 0, 0, 0x4038000000000000, 0xe9c8f35af29a245},
	"lattice5/bkstlu/eps=0.3": {"steiner: could not build a Steiner tree within the bound", 309, 200, 24, 4, 0, 3, 3, 0, 0x0, 0x0},
	"lattice5/planar/eps=0.3": {"", 36, 6, 24, 0, 0, 0, 0, 0, 0x4038000000000000, 0xe9c8f35af29a245},
	"lattice5/bkst/eps=2":     {"", 36, 0, 24, 0, 0, 0, 0, 0, 0x4038000000000000, 0x2c162536e07d80f7},
	"lattice5/bkstlu/eps=2":   {"steiner: could not build a Steiner tree within the bound", 323, 34, 24, 13, 0, 1, 1, 0, 0x0, 0x0},
	"lattice5/planar/eps=2":   {"", 36, 0, 24, 0, 0, 0, 0, 0, 0x4038000000000000, 0x2c162536e07d80f7},
	"p1/bkst/eps=0":           {"", 26, 13, 5, 0, 10, 0, 0, 0, 0x403e000000000000, 0xbd027d51cd240c6b},
	"p1/bkstlu/eps=0":         {"", 26, 13, 5, 0, 10, 0, 0, 0, 0x403e000000000000, 0xbd027d51cd240c6b},
	"p1/planar/eps=0":         {"", 26, 13, 5, 0, 10, 0, 0, 0, 0x403e000000000000, 0xbd027d51cd240c6b},
	"p1/bkst/eps=0.3":         {"", 19, 0, 5, 0, 7, 0, 0, 0, 0x403ab33333333334, 0x6d2cfece90e8adbe},
	"p1/bkstlu/eps=0.3":       {"", 19, 0, 5, 0, 7, 0, 0, 0, 0x403ab33333333334, 0x6d2cfece90e8adbe},
	"p1/planar/eps=0.3":       {"", 19, 0, 5, 0, 7, 0, 0, 0, 0x403ab33333333334, 0x6d2cfece90e8adbe},
	"p1/bkst/eps=2":           {"", 19, 0, 5, 0, 7, 0, 0, 0, 0x403ab33333333334, 0x6d2cfece90e8adbe},
	"p1/bkstlu/eps=2":         {"", 19, 0, 5, 0, 7, 0, 0, 0, 0x403ab33333333334, 0x6d2cfece90e8adbe},
	"p1/planar/eps=2":         {"", 19, 0, 5, 0, 7, 0, 0, 0, 0x403ab33333333334, 0x6d2cfece90e8adbe},
	"p2/bkst/eps=0":           {"", 44, 22, 7, 0, 15, 0, 0, 0, 0x4041800000000000, 0x60426d3957bb3480},
	"p2/bkstlu/eps=0":         {"", 44, 22, 7, 0, 15, 0, 0, 0, 0x4041800000000000, 0x60426d3957bb3480},
	"p2/planar/eps=0":         {"", 44, 22, 7, 0, 15, 0, 0, 0, 0x4041800000000000, 0x60426d3957bb3480},
	"p2/bkst/eps=0.3":         {"", 35, 1, 7, 0, 9, 0, 0, 0, 0x403cc28f5c28f5c3, 0xf7090fdb7ba9f777},
	"p2/bkstlu/eps=0.3":       {"", 35, 1, 7, 0, 9, 0, 0, 0, 0x403cc28f5c28f5c3, 0xf7090fdb7ba9f777},
	"p2/planar/eps=0.3":       {"", 35, 1, 7, 0, 9, 0, 0, 0, 0x403cc28f5c28f5c3, 0xf7090fdb7ba9f777},
	"p2/bkst/eps=2":           {"", 35, 0, 7, 0, 9, 0, 0, 0, 0x403cae147ae147ae, 0xf973ba21e18784fa},
	"p2/bkstlu/eps=2":         {"", 35, 0, 7, 0, 9, 0, 0, 0, 0x403cae147ae147ae, 0xf973ba21e18784fa},
	"p2/planar/eps=2":         {"", 35, 0, 7, 0, 9, 0, 0, 0, 0x403cae147ae147ae, 0xf973ba21e18784fa},
}
