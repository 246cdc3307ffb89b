package baseline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/inst"
)

// AHHKBuild implements the paper's reference [9] — Alpert, Hu, Huang and
// Kahng, "A direct combination of the Prim and Dijkstra constructions
// for improved performance-driven global routing" (ISCAS 1993). The
// tree grows from the source, always attaching the sink v (via tree
// node u) that minimizes
//
//	c·pathlen(S,u) + dist(u,v)
//
// c = 0 reproduces Prim's MST; c = 1 reproduces Dijkstra's SPT; values
// between trade the average source-sink path length against total cost.
// Unlike BKRUS it offers no hard guarantee on the longest path — the
// paper compares against it as the best prior trade-off heuristic. ctx
// is polled once per attachment, so the O(n²) growth loop aborts within
// one relaxation sweep of cancellation.
func AHHKBuild(ctx context.Context, in *inst.Instance, c float64) (*graph.Tree, error) {
	if c < 0 || c > 1 || math.IsNaN(c) {
		return nil, fmt.Errorf("baseline: AHHK parameter c = %g outside [0,1]", c)
	}
	dm := in.Oracle()
	n := in.N()
	t := graph.NewTree(n)
	if n <= 1 {
		return t, nil
	}
	inTree := make([]bool, n)
	pathLen := make([]float64, n)
	score := make([]float64, n) // best c·path(S,u) + dist(u,v) seen for v
	from := make([]int, n)
	inTree[graph.Source] = true
	for v := 1; v < n; v++ {
		score[v] = dm.At(graph.Source, v) // u = S: c·0 + dist
		from[v] = graph.Source
	}
	chk := cancel.New(ctx, 1)
	for k := 1; k < n; k++ {
		if err := chk.Err(); err != nil {
			return nil, err
		}
		v := -1
		for j := 1; j < n; j++ {
			if !inTree[j] && (v == -1 || score[j] < score[v]) {
				v = j
			}
		}
		u := from[v]
		inTree[v] = true
		pathLen[v] = pathLen[u] + dm.At(u, v)
		t.AddEdge(u, v, dm.At(u, v))
		for j := 1; j < n; j++ {
			if !inTree[j] {
				if s := c*pathLen[v] + dm.At(v, j); s < score[j] {
					score[j] = s
					from[j] = v
				}
			}
		}
	}
	return t, nil
}
