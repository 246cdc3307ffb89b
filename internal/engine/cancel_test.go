package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/inst"
	"repro/internal/mst"
)

// A context cancelled while the exact enumeration is deep in its search
// tree must surface ctx.Err() promptly instead of grinding through the
// tree budget. The window [0.97·R, R] is infeasible for a random
// 14-sink instance, so without cancellation the search enumerates its
// whole budget.
func TestCancelAbortsBMSTGMidSearch(t *testing.T) {
	in := bench.Random(7, 14, 100)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()

	_, err := Build(ctx, "bmstglu", in, Params{Eps1: 0.97, Eps2: 0, GabowBudget: 2000000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-search cancel returned %v, want context.Canceled", err)
	}
}

// A pre-cancelled context must abort every registered constructor:
// Build checks it before dispatch, so even a constructor without a loop
// to poll (spt) returns context.Canceled.
func TestPreCancelledContextAborts(t *testing.T) {
	in := bench.P3()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		if _, err := Build(ctx, name, in, conformanceParams[name]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx returned %v, want context.Canceled", name, err)
		}
	}
}

// cancelAfterFirstPoll is a context whose Done channel is closed from
// the start but whose Err reports nil to the first caller: Build's
// pre-dispatch check passes, and the construction's first poll of its
// own sees context.Canceled. No clock decides when it fires. It records
// the call stack of that firing poll, so a test can tell which loop
// polled.
type cancelAfterFirstPoll struct {
	context.Context
	done  chan struct{}
	polls atomic.Int32
	fired []string // functions on the stack of the poll that returned Canceled
}

func newCancelAfterFirstPoll() *cancelAfterFirstPoll {
	c := &cancelAfterFirstPoll{Context: context.Background(), done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *cancelAfterFirstPoll) Done() <-chan struct{} { return c.done }

func (c *cancelAfterFirstPoll) Err() error {
	if c.polls.Add(1) == 1 {
		return nil
	}
	if c.fired == nil {
		pcs := make([]uintptr, 32)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
		for {
			f, more := frames.Next()
			c.fired = append(c.fired, f.Function)
			if !more {
				break
			}
		}
	}
	return context.Canceled
}

// The Kruskal-scan constructors poll inside their scan: cancelled after
// Build's own check, each stops at the first poll of its edge-stream
// scan instead of finishing the tree.
func TestCancelStopsKruskalScans(t *testing.T) {
	in := bench.Random(11, 1000, 1000)
	for _, tc := range []struct{ name, scan string }{
		{"mst", "repro/internal/mst.KruskalFrom"},
		{"maxst", "repro/internal/mst.KruskalFrom"},
		{"brbc", "repro/internal/mst.KruskalFrom"},
		{"elmore", "repro/internal/delay.buildElmore"},
		{"bkrus", "repro/internal/core.(*engine).run"},
	} {
		ctx := newCancelAfterFirstPoll()
		if _, err := Build(ctx, tc.name, in, conformanceParams[tc.name]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s cancelled mid-scan returned %v, want context.Canceled", tc.name, err)
			continue
		}
		if !slices.Contains(ctx.fired, tc.scan) {
			t.Errorf("%s: the cancelling poll came from %v, want it inside %s", tc.name, ctx.fired, tc.scan)
		}
	}
}

// Cancelling between sweep iterations must stop the sweep at the next
// boundary and return ctx.Err(), regardless of how cheap the individual
// builds are. A failing cell stops the sweep the same way: the first
// failure by input order is the error, and no later cell runs.
func TestSweepCancelledMidway(t *testing.T) {
	r := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	builds := 0
	r.Register(Info{Name: "selfcancel", Kind: Spanning}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		builds++
		if builds == 3 {
			cancel()
		}
		return Result{Tree: mst.Kruskal(in.DistMatrix())}, nil
	})

	_, err := r.Sweep(ctx, "selfcancel", bench.P1(), make([]Params, 10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if builds != 3 {
		t.Errorf("sweep ran %d builds after cancellation at the 3rd, want exactly 3", builds)
	}

	sentinel := errors.New("boom")
	failing := 0
	r.Register(Info{Name: "flaky", Kind: Spanning}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		failing++
		if p.Eps < 0.05 {
			return Result{}, sentinel
		}
		return Result{Tree: mst.Kruskal(in.DistMatrix())}, nil
	})
	ps := []Params{{Eps: 0.3}, {Eps: 0.2}, {Eps: 0.01}, {Eps: 0.4}, {Eps: 0.02}}
	_, err = r.Sweep(context.Background(), "flaky", bench.P1(), ps)
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "flaky[2]") {
		t.Fatalf("failing sweep returned %v, want the sentinel at flaky[2]", err)
	}
	if failing != 3 {
		t.Errorf("sweep ran %d builds after the failure at the 3rd, want exactly 3", failing)
	}
}

// A pre-cancelled sweep must not build anything.
func TestSweepPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ps := []Params{{Eps: 0.1}, {Eps: 0.2}}
	if _, err := Sweep(ctx, "bkrus", bench.P4(), ps); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled", err)
	}

	r := NewRegistry()
	builds := 0
	r.Register(Info{Name: "counting", Kind: Spanning}, func(ctx context.Context, in *inst.Instance, p Params) (Result, error) {
		builds++
		return Result{Tree: mst.Kruskal(in.DistMatrix())}, nil
	})
	if _, err := r.Sweep(ctx, "counting", bench.P1(), ps); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled", err)
	}
	if builds != 0 {
		t.Errorf("pre-cancelled sweep ran %d builds, want 0", builds)
	}
}
