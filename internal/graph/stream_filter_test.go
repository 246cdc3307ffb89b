package graph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cancel"
	"repro/internal/geom"
)

// filterInput is one edge set over nodes [0, n).
type filterInput struct {
	name  string
	n     int
	edges []Edge
}

// filterInputs returns the edge sets for the filter properties: heavy
// integer ties, the skewed sets that force re-splits, and complete
// graphs over integer points and a lattice, where equal distances are
// everywhere.
func filterInputs(rng *rand.Rand) []filterInput {
	var out []filterInput
	for _, n := range []int{2, 3, 10, 40, 90} {
		out = append(out, filterInput{fmt.Sprintf("ties/n=%d", n), n, randomEdges(rng, n)})
	}
	skewed := skewedEdges(rng, 100)
	for _, name := range []string{"outlier", "clusters", "equal", "negated", "inf"} {
		out = append(out, filterInput{"skewed/" + name, 100, skewed[name]})
	}
	complete := func(pts []geom.Point) []Edge {
		var edges []Edge
		dm := geom.NewDistMatrix(pts, geom.Manhattan)
		for u := range pts {
			for v := u + 1; v < len(pts); v++ {
				edges = append(edges, Edge{U: u, V: v, W: dm.At(u, v)})
			}
		}
		return edges
	}
	out = append(out, filterInput{"points/n=120", 120, complete(randomPoints(rng, 120))})
	var lattice []geom.Point
	for x := 0; x < 12; x++ {
		for y := 0; y < 12; y++ {
			lattice = append(lattice, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	out = append(out, filterInput{"lattice/12x12", len(lattice), complete(lattice)})
	return out
}

// filteredPass drives s with a Kruskal-style consumer: it takes each
// yielded edge and, with probability accept, unions its ends (a
// rejected edge stands for a failed bound test), stopping after stop
// unions or at exhaustion. Alongside, it walks want, the SortEdges
// order, with the same disjoint set, and checks that the stream yields
// exactly want less the edges already joined at their turn. It returns
// how many edges the pass yielded and how many of want's edges it
// passed as joined.
func filteredPass(t *testing.T, label string, s *EdgeStream, n int, want []Edge, rng *rand.Rand, accept float64, stop int) (yielded, joined int) {
	t.Helper()
	ds := NewDisjointSet(n)
	i := 0
	for unions := 0; unions < stop; {
		got, ok, err := s.Next(ds, nil)
		if err != nil {
			t.Fatalf("%s: Next: %v", label, err)
		}
		for i < len(want) && ds.Same(want[i].U, want[i].V) {
			i++
			joined++
		}
		if i == len(want) {
			if ok {
				t.Fatalf("%s: stream yielded %v after the last unjoined edge", label, got)
			}
			return yielded, joined
		}
		if !ok {
			t.Fatalf("%s: stream ended with %v (edge %d of %d) unjoined", label, want[i], i, len(want))
		}
		if !sameEdge(got, want[i]) {
			t.Fatalf("%s: yield %d = %v, want %v (edge %d)", label, yielded, got, want[i], i)
		}
		i++
		yielded++
		if rng.Float64() < accept {
			ds.Union(got.U, got.V)
			unions++
		}
	}
	return yielded, joined
}

// nilPass drains s with Next(nil, nil) and checks it reproduces want.
func nilPass(t *testing.T, label string, s *EdgeStream, want []Edge) {
	t.Helper()
	for i, w := range want {
		got, ok, err := s.Next(nil, nil)
		if err != nil || !ok || !sameEdge(got, w) {
			t.Fatalf("%s: edge %d = %v ok=%v err=%v, want %v", label, i, got, ok, err, w)
		}
	}
	if _, ok, _ := s.Next(nil, nil); ok {
		t.Fatalf("%s: stream yielded past the end", label)
	}
}

// TestEdgeStreamFilterMatchesSortEdges pins the filter's contract on
// random inputs: a pass yields the SortEdges order less the edges the
// consumer's disjoint set has joined at their turn; Reset passes driven
// by other union sequences (partial and full, over buckets an earlier
// pass filtered) obey the same; a full pass counts every entry exactly
// once as yielded or skipped; and Next(nil) afterwards still reproduces
// SortEdges exactly and re-serves its sorted prefix without sorting a
// new bucket.
func TestEdgeStreamFilterMatchesSortEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, in := range filterInputs(rng) {
		name := in.name
		want := append([]Edge(nil), in.edges...)
		SortEdges(want)
		s := NewEdgeStreamFrom(in.edges)
		for pass, cfg := range []struct {
			accept float64
			stop   int
		}{
			{1, in.n - 1},     // plain Kruskal
			{0.3, in.n / 3},   // a few unions, stopping early
			{0.7, in.n - 1},   // a bounded scan rejecting some edges
			{0.5, len(want)},  // never reaches stop: drains the stream
			{0.9, in.n/2 + 1}, // a shallow pass over re-filtered buckets
			{0.1, 2 * in.n},   // deep, with few unions
		} {
			label := fmt.Sprintf("%s/pass=%d", name, pass)
			s.Reset()
			skipped0 := s.Skipped()
			yielded, joined := filteredPass(t, label, s, in.n, want, rng, cfg.accept, cfg.stop)
			skipped := s.Skipped() - skipped0
			if skipped < joined {
				t.Fatalf("%s: stream counted %d skipped entries, the scan passed %d joined", label, skipped, joined)
			}
			if s.Drained() == s.Len() && yielded+skipped != s.Len() {
				t.Fatalf("%s: a full pass yielded %d and skipped %d of %d entries", label, yielded, skipped, s.Len())
			}
		}
		s.Reset()
		nilPass(t, name+"/nil", s, want)
		if s.SortedPrefix() != s.Len() {
			t.Fatalf("%s: SortedPrefix = %d of %d after a full Next(nil) pass", name, s.SortedPrefix(), s.Len())
		}
		batches := s.Batches()
		s.Reset()
		nilPass(t, name+"/nil again", s, want)
		if s.Batches() != batches {
			t.Fatalf("%s: re-serving the sorted prefix sorted %d new buckets", name, s.Batches()-batches)
		}
	}
}

// TestEdgeStreamFilterKeepsBuckets pins that filtering never moves a
// bucket boundary: one full pass with an evolving disjoint set sorts
// exactly the buckets an unfiltered full pass sorts.
func TestEdgeStreamFilterKeepsBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, in := range filterInputs(rng) {
		name := in.name
		plain := NewEdgeStreamFrom(in.edges)
		for {
			if _, ok, _ := plain.Next(nil, nil); !ok {
				break
			}
		}
		filtered := NewEdgeStreamFrom(in.edges)
		ds := NewDisjointSet(in.n)
		for {
			e, ok, _ := filtered.Next(ds, nil)
			if !ok {
				break
			}
			ds.Union(e.U, e.V)
		}
		if filtered.Batches() != plain.Batches() {
			t.Errorf("%s: a filtered full pass sorted %d buckets, an unfiltered one %d", name, filtered.Batches(), plain.Batches())
		}
	}
}

// TestEdgeStreamFilterPolls pins the poll rule: every entry the stream
// passes over ticks the checker once, joined entries included, so a
// cancelled scan over fully joined buckets stops one stride into the
// stream; and the stream a cancelled pass leaves still reproduces
// SortEdges after Reset.
func TestEdgeStreamFilterPolls(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n, stride = 90, 8
	edges := randomEdges(rng, n)
	want := append([]Edge(nil), edges...)
	SortEdges(want)
	all := NewDisjointSet(n)
	for v := 1; v < n; v++ {
		all.Union(0, v)
	}

	s := NewEdgeStreamFrom(edges)
	if _, ok, err := s.Next(all, nil); ok || err != nil {
		t.Fatalf("a pass over a joined set returned ok=%v err=%v, want exhaustion", ok, err)
	}
	if s.Skipped() != s.Len() || s.Drained() != s.Len() {
		t.Fatalf("a pass over a joined set skipped %d and passed %d of %d entries", s.Skipped(), s.Drained(), s.Len())
	}

	ctx, stop := context.WithCancel(context.Background())
	stop()
	for _, ds := range []*DisjointSet{all, nil} {
		s.Reset()
		chk := cancel.New(ctx, stride)
		var err error
		for ok := true; ok && err == nil; {
			_, ok, err = s.Next(ds, &chk)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled pass returned %v, want context.Canceled", err)
		}
		if s.Drained() != stride {
			t.Fatalf("cancelled pass passed %d entries, want one stride (%d)", s.Drained(), stride)
		}
	}
	s.Reset()
	nilPass(t, "after cancellation", s, want)
}
