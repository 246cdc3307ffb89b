package viz

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/inst"
	"repro/internal/steiner"
)

func fixtureInstance() *inst.Instance {
	return inst.MustNew(geom.Point{X: 0, Y: 0}, []geom.Point{
		{X: 10, Y: 0}, {X: 5, Y: 8}, {X: 2, Y: 3},
	}, geom.Manhattan)
}

func TestTreeSVGWellFormed(t *testing.T) {
	in := fixtureInstance()
	tr, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, 0.5), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Tree(&buf, in, tr, DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("not a well-formed SVG document")
	}
	if strings.Count(out, "<line") < len(tr.Edges) {
		t.Errorf("expected at least %d wire lines", len(tr.Edges))
	}
	if strings.Count(out, "<circle") != in.NumSinks() {
		t.Errorf("expected %d sink circles", in.NumSinks())
	}
	if strings.Count(out, "<rect") != 2 { // background + source marker
		t.Errorf("expected background and source rects, got %d", strings.Count(out, "<rect"))
	}
}

func TestTreeSVGRectilinear(t *testing.T) {
	in := fixtureInstance()
	tr, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, 0.5), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	style := DefaultStyle()
	style.Rectilin = true
	var straight, rect bytes.Buffer
	if err := Tree(&straight, in, tr, DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	if err := Tree(&rect, in, tr, style); err != nil {
		t.Fatal(err)
	}
	// at least one diagonal edge exists in the fixture, so the
	// rectilinear rendering must emit more segments
	if strings.Count(rect.String(), "<line") <= strings.Count(straight.String(), "<line") {
		t.Error("rectilinear rendering should split diagonal edges into L-shapes")
	}
}

func TestSteinerSVGWithGrid(t *testing.T) {
	in := fixtureInstance()
	st, err := steiner.BKSTBuild(context.Background(), in, core.UpperOnly(in, 0.5), steiner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	style := DefaultStyle()
	style.GridColor = "#eeeeee"
	var buf bytes.Buffer
	if err := Steiner(&buf, in, st, style); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	grid := st.Grid()
	minLines := len(st.Edges()) + grid.Cols() + grid.Rows()
	if strings.Count(out, "<line") < minLines {
		t.Errorf("expected >= %d lines (wires + grid), got %d", minLines, strings.Count(out, "<line"))
	}
}

func TestTransformDegenerate(t *testing.T) {
	// all points identical: transform must not divide by zero
	in := inst.MustNew(geom.Point{X: 1, Y: 1}, []geom.Point{{X: 1, Y: 1}}, geom.Manhattan)
	tr, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, 0), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Tree(&buf, in, tr, DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") || strings.Contains(buf.String(), "Inf") {
		t.Error("degenerate transform produced NaN/Inf coordinates")
	}
}

type fakeGrid struct {
	cols, rows int
	data       []int
}

func (f fakeGrid) At(c, r int) int { return f.data[r*f.cols+c] }
func (f fakeGrid) MaxDemand() int {
	m := 0
	for _, d := range f.data {
		if d > m {
			m = d
		}
	}
	return m
}

func TestHeatmap(t *testing.T) {
	g := fakeGrid{cols: 2, rows: 2, data: []int{0, 1, 2, 4}}
	var buf bytes.Buffer
	if err := Heatmap(&buf, g, 2, 2, DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "<rect") != 5 { // background + 4 cells
		t.Errorf("rect count = %d", strings.Count(out, "<rect"))
	}
	if !strings.Contains(out, "#ffffff") { // idle cell stays white
		t.Error("idle cell not white")
	}
	if !strings.Contains(out, "#d62728") { // max cell fully saturated
		t.Error("max cell not saturated")
	}
	if strings.Count(out, "<text") != 4 { // small grid overlays values
		t.Errorf("text overlays = %d", strings.Count(out, "<text"))
	}
	if err := Heatmap(&buf, g, 0, 2, DefaultStyle()); err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestHeatmapAllZero(t *testing.T) {
	g := fakeGrid{cols: 1, rows: 1, data: []int{0}}
	var buf bytes.Buffer
	if err := Heatmap(&buf, g, 1, 1, DefaultStyle()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Error("zero-demand grid produced NaN")
	}
}
