package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestForestWorkBound pins the forest's traversal work without a clock:
// the nodes its fills reach over a whole build (the radius fills of the
// sides whose diameter grew, the re-rooting fills of the smaller trees,
// the source joins) stay within 2·n·log₂ n on uniform L1 sparse builds at
// n = 10⁴, the instance of BenchmarkSparseLayers. Refilling both merged
// trees on every source-free merge reaches 0.5–2 M nodes here.
func TestForestWorkBound(t *testing.T) {
	const nodes = 10000
	in := randomInstance(rand.New(rand.NewSource(29)), nodes-1, 1000)
	limit := int64(2 * nodes * math.Log2(nodes))
	var s Scratch
	for _, eps := range []float64{0.1, 0.5, 2} {
		if _, err := BKRUSBuild(context.Background(), in, UpperOnly(in, eps), Config{Scratch: &s, Geometry: GeomSparse}); err != nil {
			t.Fatal(err)
		}
		if got := s.f.visits; got > limit {
			t.Errorf("eps=%g: the fills reached %d nodes, over 2·n·log2 n = %d", eps, got, limit)
		} else {
			t.Logf("eps=%g: %d nodes reached (limit %d)", eps, got, limit)
		}
	}
}

// noPairs is a pair metric that never prunes.
type noPairs struct{}

func (noPairs) At(int, int) float64 { return 0 }

// linkedForest is a Forest driven by hand over n nodes plus a source at
// n that is never linked, so every tree stays source-free, with the
// adjacency of its links kept on the side for an independent DFS.
type linkedForest struct {
	f   Forest
	adj [][]halfLink
}

// halfLink is one direction of a link in linkedForest's side adjacency.
type halfLink struct {
	to int
	w  float64
}

func newLinkedForest(n int) *linkedForest {
	lf := &linkedForest{adj: make([][]halfLink, n)}
	lf.f.Reset(n+1, n, func(int) float64 { return 0 }, noPairs{}, Bounds{Upper: math.Inf(1)})
	return lf
}

func (lf *linkedForest) link(u, v int, w float64) {
	lf.f.Link(u, v, w)
	lf.adj[u] = append(lf.adj[u], halfLink{v, w})
	lf.adj[v] = append(lf.adj[v], halfLink{u, w})
}

// pathsFrom is a DFS over the side adjacency: the path length from x to
// every member of its tree, NaN elsewhere.
func (lf *linkedForest) pathsFrom(x int) []float64 {
	d := make([]float64, len(lf.adj))
	for i := range d {
		d[i] = math.NaN()
	}
	d[x] = 0
	st := []int{x}
	for len(st) > 0 {
		y := st[len(st)-1]
		st = st[:len(st)-1]
		for _, e := range lf.adj[y] {
			if math.IsNaN(d[e.to]) {
				d[e.to] = d[y] + e.w
				st = append(st, e.to)
			}
		}
	}
	return d
}

// naiveLCA walks parent pointers: it marks x's ancestors, then climbs
// from y to the first marked one, checking that the parents form a
// rooted tree whose hop depths count the edges.
func naiveLCA(t *testing.T, f *Forest, x, y int) int {
	t.Helper()
	anc := map[int]bool{}
	for a, hops := x, int(f.hops[x]); ; a = int(f.up[a]) {
		anc[a] = true
		if int(f.hops[a]) != hops {
			t.Fatalf("hops[%d] = %d, want %d", a, f.hops[a], hops)
		}
		if int(f.up[a]) == a {
			break
		}
		hops--
	}
	for a := y; ; a = int(f.up[a]) {
		if anc[a] {
			return a
		}
		if int(f.up[a]) == a {
			t.Fatalf("%d and %d share no root", x, y)
		}
	}
}

// checkPaths compares lca against naiveLCA and path against the side DFS
// for sampled pairs of every tree: exactly when every weight is an
// integer, within 1e-9 of the depths and the path otherwise.
func checkPaths(t *testing.T, label string, lf *linkedForest, rng *rand.Rand, samples int, exact bool) {
	t.Helper()
	f := &lf.f
	n := len(lf.adj)
	for s := 0; s < samples; s++ {
		x := rng.Intn(n)
		d := lf.pathsFrom(x)
		members := f.Members(x)
		for k := 0; k < 8; k++ {
			y := members[rng.Intn(len(members))]
			want := naiveLCA(t, f, x, y)
			if got := int(f.lca(int32(x), int32(y))); got != want {
				t.Fatalf("%s: lca(%d,%d) = %d, naive walk %d", label, x, y, got, want)
			}
			got := f.path(x, y)
			if tol := 1e-9 * (f.depth[x] + f.depth[y] + d[y]); exact && got != d[y] || math.Abs(got-d[y]) > tol {
				t.Fatalf("%s: path(%d,%d) = %v, DFS %v", label, x, y, got, d[y])
			}
		}
	}
}

// TestForestRootedPaths checks the rooted forest the witness scan reads
// — parents, hop depths, jump pointers, lca and path — against a naive
// parent walk and a DFS over the links: on random link sequences with
// integer weights (zero among them, as coincident points give), with
// float weights, and on a 10⁴-node chain whose depths reach 10⁴.
func TestForestRootedPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(300)
		exact := trial%2 == 0
		lf := newLinkedForest(n)
		for links := 0; links < n-1-trial%3; {
			u, v := rng.Intn(n), rng.Intn(n)
			if lf.f.Same(u, v) {
				continue
			}
			w := float64(rng.Intn(3)) // 0, 1 or 2
			if !exact {
				w = rng.Float64() * 10
			}
			lf.link(u, v, w)
			links++
			if links%17 == 0 {
				checkPaths(t, fmt.Sprintf("trial %d after %d links", trial, links), lf, rng, 4, exact)
			}
		}
		checkPaths(t, fmt.Sprintf("trial %d", trial), lf, rng, 20, exact)
	}

	// A chain joined segment to segment, doubling: each join hangs the
	// right segment under the left one's last node, so the chain's last
	// node ends at depth n − 1, the jump pointers' worst case for a naive
	// climb. (Grown one node at a time, the chain's diameter would grow
	// on every link and refill the whole chain each time.)
	const chain = 10000
	lf := newLinkedForest(chain)
	for s := 1; s < chain; s *= 2 {
		for start := 0; start+s < chain; start += 2 * s {
			i := start + s
			lf.link(i-1, i, 0.1*float64(1+i%7))
		}
	}
	if got := lf.f.hops[chain-1]; got != chain-1 {
		t.Fatalf("chain tail at hop depth %d, want %d", got, chain-1)
	}
	checkPaths(t, "chain", lf, rng, 10, false)
}
