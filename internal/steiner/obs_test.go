package steiner

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// BKSTBuild with explicit counters must build the same tree as BKST
// while recording grid dimensions and construction counters.
func TestBKSTBuildCountersMatchBKST(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := randomInstance(rng, 12, 40)

	plain, err := bkst(in, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	sc := reg.Scope(ScopeName)
	observed, err := BKSTBuild(context.Background(), in, core.UpperOnly(in, 0.3), Config{Counters: NewCounters(sc)})
	if err != nil {
		t.Fatal(err)
	}
	if observed.Cost() != plain.Cost() || observed.Radius() != plain.Radius() {
		t.Errorf("observed tree differs: cost %v vs %v, radius %v vs %v",
			observed.Cost(), plain.Cost(), observed.Radius(), plain.Radius())
	}

	g := NewGrid(in)
	if got := sc.Gauge(GaugeGridNodes).Load(); got != float64(g.Size()) {
		t.Errorf("grid_nodes gauge = %v, want %d", got, g.Size())
	}
	if got := sc.Gauge(GaugeGridCols).Load(); got != float64(g.Cols()) {
		t.Errorf("grid_cols gauge = %v, want %d", got, g.Cols())
	}
	if sc.Counter(CtrCandidatesExamined).Load() == 0 {
		t.Error("no candidates examined recorded")
	}
	embeds := sc.Counter(CtrEmbeds).Load()
	if embeds == 0 {
		t.Error("no embeds recorded")
	}
	// Every merge embeds one path; a forest of n terminals needs at
	// least n-1 merging embeds (fallbacks may add more).
	if embeds < int64(in.N()-1) {
		t.Errorf("embeds = %d, want >= %d", embeds, in.N()-1)
	}

	// No counters: recording off, identical tree.
	silent, err := BKSTBuild(context.Background(), in, core.UpperOnly(in, 0.3), Config{})
	if err != nil || silent.Cost() != plain.Cost() {
		t.Errorf("counterless build differs: %v %v", silent, err)
	}

	// Validation errors surface before any building.
	if _, err := BKSTBuild(context.Background(), in, core.Bounds{Lower: -1, Upper: 1}, Config{}); err == nil {
		t.Error("malformed window accepted")
	}
}
