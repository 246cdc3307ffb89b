package serve

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/steiner"
)

// Point is a terminal location in the request/response JSON.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// BuildRequest is the POST /v1/build body: a batch of nets built in one
// request under one deadline. SERVING.md is the API reference.
type BuildRequest struct {
	// TimeoutMS bounds the whole request (admission wait included) in
	// milliseconds. 0 means the server default; values above the server
	// maximum are clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Nets are built in order; the response lists results in the same
	// order.
	Nets []NetRequest `json:"nets"`
}

// NetRequest is one net of a batch: an instance (source, sinks, metric)
// plus the constructor name and its parameters, mirroring engine.Params
// field for field.
type NetRequest struct {
	// Name labels the net in results and error messages. Empty means
	// "net <index>".
	Name string `json:"name,omitempty"`
	// Metric is "l1"/"manhattan" (default) or "l2"/"euclidean".
	Metric string  `json:"metric,omitempty"`
	Source Point   `json:"source"`
	Sinks  []Point `json:"sinks"`
	// Algo is a constructor name from the engine registry (GET
	// /v1/algos lists them).
	Algo string `json:"algo"`

	Eps     float64 `json:"eps,omitempty"`
	Eps1    float64 `json:"eps1,omitempty"`
	Eps2    float64 `json:"eps2,omitempty"`
	C       float64 `json:"c,omitempty"`
	Depth   int     `json:"depth,omitempty"`
	XBudget int     `json:"xbudget,omitempty"`
	GBudget int     `json:"gbudget,omitempty"`

	// EpsSweep, when non-empty, builds the net once per listed eps
	// (overriding Eps) as an engine sweep sharing one sorted-edge
	// stream; the result carries one tree per eps, in input order.
	EpsSweep []float64 `json:"eps_sweep,omitempty"`
}

// BuildResponse is the 200 body of POST /v1/build.
type BuildResponse struct {
	Results []NetResult `json:"results"`
}

// NetResult is one net's outcome: one tree, or one per eps_sweep value.
type NetResult struct {
	Name     string       `json:"name"`
	Algo     string       `json:"algo"`
	Kind     string       `json:"kind"` // "spanning" or "steiner"
	CacheHit bool         `json:"cache_hit"`
	Trees    []TreeResult `json:"trees"`
}

// TreeResult is one constructed tree with its quality metrics. Spanning
// trees carry Edges (node ids: 0 = source, i = i'th sink of the
// request); Steiner trees carry Wires (rectilinear segments between
// Hanan grid points).
type TreeResult struct {
	Eps       float64 `json:"eps"`
	Cost      float64 `json:"cost"`
	Radius    float64 `json:"radius"`
	R         float64 `json:"r"`
	PathRatio float64 `json:"path_ratio"`
	Edges     []Edge  `json:"edges,omitempty"`
	Wires     []Wire  `json:"wires,omitempty"`
}

// Edge is one spanning-tree edge between request node ids.
type Edge struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

// Wire is one Steiner-tree grid segment.
type Wire struct {
	From Point   `json:"from"`
	To   Point   `json:"to"`
	Len  float64 `json:"len"`
}

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// AlgosResponse is the GET /v1/algos body.
type AlgosResponse struct {
	Algos []AlgoInfo `json:"algos"`
}

// AlgoInfo describes one registered constructor.
type AlgoInfo struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Params []string `json:"params,omitempty"`
	Doc    string   `json:"doc"`
}

// parseMetric resolves the request metric name; empty defaults to L1,
// the wirelength model of the paper.
func parseMetric(s string) (geom.Metric, error) {
	switch strings.ToLower(s) {
	case "", "l1", "manhattan":
		return geom.Manhattan, nil
	case "l2", "euclidean":
		return geom.Euclidean, nil
	default:
		return 0, fmt.Errorf("unknown metric %q (want l1/manhattan or l2/euclidean)", s)
	}
}

// netLabel names a net for error messages: its Name, or its index.
func (n *NetRequest) netLabel(i int) string {
	if n.Name != "" {
		return fmt.Sprintf("net %d (%s)", i, n.Name)
	}
	return fmt.Sprintf("net %d", i)
}

// params maps the request fields onto engine.Params (Obs and Scratch
// are the server's business, not the client's).
func (n *NetRequest) params() engine.Params {
	return engine.Params{
		Eps: n.Eps, Eps1: n.Eps1, Eps2: n.Eps2, AHHKC: n.C,
		ExchangeDepth: n.Depth, ExchangeBudget: n.XBudget, GabowBudget: n.GBudget,
	}
}

// checkedNet is a validated NetRequest with its resolved constructor
// and metric, produced before any admission or building happens so a
// malformed batch is rejected whole with 400.
type checkedNet struct {
	req    *NetRequest
	label  string
	ctor   engine.Constructor
	metric geom.Metric
}

// treeResult encodes a spanning-tree build.
func treeResult(eps float64, in *inst.Instance, t *graph.Tree) TreeResult {
	out := TreeResult{
		Eps:    eps,
		Cost:   t.Cost(),
		Radius: t.Radius(graph.Source),
		R:      in.R(),
		Edges:  make([]Edge, 0, len(t.Edges)),
	}
	if out.R > 0 {
		out.PathRatio = out.Radius / out.R
	}
	for _, e := range t.Edges {
		out.Edges = append(out.Edges, Edge{U: e.U, V: e.V, W: e.W})
	}
	return out
}

// steinerResult encodes a Steiner-tree build.
func steinerResult(eps float64, in *inst.Instance, st *steiner.SteinerTree) TreeResult {
	out := TreeResult{
		Eps:    eps,
		Cost:   st.Cost(),
		Radius: st.Radius(),
		R:      in.R(),
		Wires:  make([]Wire, 0, len(st.Edges())),
	}
	if out.R > 0 {
		out.PathRatio = out.Radius / out.R
	}
	g := st.Grid()
	for _, e := range st.Edges() {
		from, to := g.Coord(e.U), g.Coord(e.V)
		out.Wires = append(out.Wires, Wire{
			From: Point{X: from.X, Y: from.Y},
			To:   Point{X: to.X, Y: to.Y},
			Len:  e.W,
		})
	}
	return out
}

// encodeResult dispatches on which tree the engine result holds. A tree
// whose metrics overflow float64 — terminals spread across most of the
// float range — has no JSON form (encoding/json rejects ±Inf and NaN),
// so it is an error. Edge and wire lengths are bounded by the cost, so
// the four metrics cover them.
func encodeResult(eps float64, in *inst.Instance, res engine.Result) (TreeResult, error) {
	var out TreeResult
	if res.Steiner != nil {
		out = steinerResult(eps, in, res.Steiner)
	} else {
		out = treeResult(eps, in, res.Tree)
	}
	for _, v := range []float64{out.Cost, out.Radius, out.R, out.PathRatio} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return TreeResult{}, errors.New("tree metrics overflow float64: the terminals span too wide a range")
		}
	}
	return out, nil
}
