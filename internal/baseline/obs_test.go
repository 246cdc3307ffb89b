package baseline

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// Explicit-counter baseline builds must match the plain constructions
// and record relaxation/shortcut counters.
func TestBaselineBuildCountersMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInstance(rng, 25, 100)
	ctx := context.Background()

	plainP, err := BPRIMBuild(context.Background(), in, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sc := reg.Scope(ScopeName)
	obsP, err := BPRIMBuild(ctx, in, 0.2, NewCounters(sc))
	if err != nil {
		t.Fatal(err)
	}
	if obsP.Cost() != plainP.Cost() {
		t.Errorf("BPRIM observed cost %v vs %v", obsP.Cost(), plainP.Cost())
	}
	if sc.Counter(CtrBPRIMRelaxScans).Load() == 0 {
		t.Error("no relax scans recorded")
	}
	if got := sc.Counter(CtrBPRIMAttachments).Load(); got != int64(in.N()-1) {
		t.Errorf("attachments = %d, want %d", got, in.N()-1)
	}

	plainB, err := BRBCBuild(context.Background(), in, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	obsB, err := BRBCBuild(ctx, in, 0.1, NewCounters(sc))
	if err != nil {
		t.Fatal(err)
	}
	if obsB.Cost() != plainB.Cost() {
		t.Errorf("BRBC observed cost %v vs %v", obsB.Cost(), plainB.Cost())
	}
	// eps = 0.1 on a 25-sink spread instance forces shortcuts.
	if sc.Counter(CtrBRBCShortcuts).Load() == 0 {
		t.Error("no BRBC shortcuts recorded at tight eps")
	}

	// eps = +Inf short-circuits to the MST and says so.
	if _, err := BRBCBuild(ctx, in, math.Inf(1), NewCounters(sc)); err != nil {
		t.Fatal(err)
	}
	if sc.Counter(CtrBRBCMSTReturns).Load() != 1 {
		t.Error("MST return not recorded")
	}

	// Nil counter sets disable recording without changing results.
	silentP, err := BPRIMBuild(ctx, in, 0.2, nil)
	if err != nil || silentP.Cost() != plainP.Cost() {
		t.Errorf("nil-counter BPRIM differs: %v", err)
	}
	silentB, err := BRBCBuild(ctx, in, 0.1, nil)
	if err != nil || silentB.Cost() != plainB.Cost() {
		t.Errorf("nil-counter BRBC differs: %v", err)
	}
}
