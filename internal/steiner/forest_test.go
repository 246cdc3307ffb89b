package steiner

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
)

// steinerBookkeepingCheck recomputes path lengths from the partial
// Steiner forest (the edges committed so far) and compares them with
// the forest's bookkeeping: distS over the source tree (+Inf elsewhere),
// r over the source-free trees, and each source-free tree's live list,
// as a set, against the members whose base dist(S,x) + r[x] passes
// Upper and whose dist(S,x) passes Lower.
func steinerBookkeepingCheck(t *testing.T, b *builder, label string) {
	t.Helper()
	const tol = 1e-6
	partial := graph.NewTree(b.g.Size())
	partial.Edges = b.edges
	dS := partial.PathLengthsFrom(b.srcGrid)
	for y := range dS {
		inSource := !math.IsInf(dS[y], 1)
		if inSource != b.f.InSource(y) {
			t.Fatalf("%s: node %d in source tree %v, forest says %v", label, y, inSource, !inSource)
		}
		switch {
		case inSource && !geom.EqWithin(b.f.DistS(y), dS[y], tol):
			t.Fatalf("%s: distS[%d] = %v, recomputed %v", label, y, b.f.DistS(y), dS[y])
		case !inSource && !math.IsInf(b.f.DistS(y), 1):
			t.Fatalf("%s: distS[%d] = %v outside the source tree", label, y, b.f.DistS(y))
		}
	}
	radius := make([]float64, b.g.Size())
	for x := range radius {
		if b.f.InSource(x) || len(b.f.Members(x)) == 1 {
			continue // a lone node's radius is 0
		}
		for _, d := range partial.PathLengthsFrom(x) {
			if !math.IsInf(d, 1) && d > radius[x] {
				radius[x] = d
			}
		}
	}
	for x, want := range radius {
		if !b.f.InSource(x) && !geom.EqWithin(b.f.Radius(x), want, tol) {
			t.Fatalf("%s: r[%d] = %v, recomputed %v", label, x, b.f.Radius(x), want)
		}
	}
	for x := range radius {
		if b.f.Find(x) != x || b.f.InSource(x) {
			continue
		}
		var want []int32
		for _, m := range b.f.Members(x) {
			d := b.g.DistToSource(m)
			if b.bounds.WithinUpper(d+radius[m]) && b.bounds.WithinLower(d) {
				want = append(want, int32(m))
			}
		}
		got := slices.Clone(b.f.Live(x))
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: live list of %d holds %v, want %v", label, x, got, want)
		}
	}
}

// TestBKSTBookkeepingMatchesTreeRecompute is the Steiner twin of
// core's TestMergeBookkeepingMatchesTreeRecompute. It drives the BKST
// builder step by step, as run does, and after every embed and every
// fallback (maze route or jumper) checks the forest's bookkeeping
// against a recompute from the committed edges. The instances cover
// float and integer coordinates, the lower bound, collisions, maze
// routes and jumpers; the by-hand drive must also build the same tree
// as BKSTBuild.
func TestBKSTBookkeepingMatchesTreeRecompute(t *testing.T) {
	cases := []struct {
		name   string
		in     *inst.Instance
		bounds func(*inst.Instance) core.Bounds
		planar bool
	}{
		{"float12/eps=0", floatL1Instance(12, 12), func(in *inst.Instance) core.Bounds { return core.UpperOnly(in, 0) }, false},
		{"float24/eps=0.3/lower", floatL1Instance(24, 24), func(in *inst.Instance) core.Bounds { return core.LowerUpper(in, 0.3, 0.3) }, false},
		{"int20/eps=0.1", randomInstance(rand.New(rand.NewSource(5)), 20, 30), func(in *inst.Instance) core.Bounds { return core.UpperOnly(in, 0.1) }, false},
		{"lattice5/lower", latticeL1Instance(5), func(in *inst.Instance) core.Bounds { return core.LowerUpper(in, 0.3, 0.3) }, false},
		{"float60/eps=0", floatL1Instance(60, 60), func(in *inst.Instance) core.Bounds { return core.UpperOnly(in, 0) }, false},
		{"float60/eps=0/planar", floatL1Instance(60, 60), func(in *inst.Instance) core.Bounds { return core.UpperOnly(in, 0) }, true},
	}
	kinds := map[string]int{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bounds := tc.bounds(tc.in)
			b := newBuilder(tc.in, bounds)
			b.planar = tc.planar
			b.c = NewCounters(nil)
			steps := 0
			for b.h.Len() > 0 && b.joined < b.terminals {
				before := len(b.edges)
				b.step()
				if len(b.edges) > before {
					steps++
					steinerBookkeepingCheck(t, b, "embed")
				}
			}
			for term := 1; term < b.g.NumTerminals(); term++ {
				if id := b.g.Terminal(term); !b.f.InSource(id) {
					b.fallbackConnect(id)
					steinerBookkeepingCheck(t, b, "fallback")
				}
			}
			if steps == 0 {
				t.Fatal("no embeds; the property is vacuous")
			}
			kinds["collisions"] += int(b.c.EmbedCollisions.Load())
			kinds["mazes"] += int(b.c.MazeRoutes.Load())
			kinds["jumpers"] += int(b.c.JumperWires.Load())
			st, err := BKSTBuild(context.Background(), tc.in, bounds, Config{Planar: tc.planar})
			if err == nil && !slices.Equal(st.Edges(), b.edges) {
				t.Fatal("the by-hand drive built a different tree from BKSTBuild")
			}
		})
	}
	for _, k := range []string{"collisions", "mazes", "jumpers"} {
		if kinds[k] == 0 {
			t.Errorf("no case exercised %s", k)
		}
	}
}
