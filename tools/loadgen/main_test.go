package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/inst"
	"repro/internal/obs"
	"repro/internal/serve"
)

func serveURL(t *testing.T, cfg serve.Config) (string, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(serve.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), ts
}

// TestRunMixedBurst drives an in-process daemon with the default mix
// and checks the success path: all 200s, a parseable report, a valid
// metrics snapshot on disk, and every body decoded by the daemon's
// canonical parser (no decode_fallbacks).
func TestRunMixedBurst(t *testing.T) {
	addr, _ := serveURL(t, serve.Config{})
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var out bytes.Buffer
	cfg := config{
		addr: addr, n: 12, c: 3,
		algos: []string{"bkrus", "mst", "bkst"},
		sinks: 8, sweep: 2, seed: 42, timeoutMS: 5000,
		metricsOut: metrics,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "status 200: 12") {
		t.Errorf("report missing the 200 count:\n%s", out.String())
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics-out is not a snapshot: %v", err)
	}
	if len(snap.Scopes) == 0 {
		t.Error("metrics-out snapshot has no scopes")
	}
	counters := map[string]int64{}
	for _, sc := range snap.Scopes {
		if sc.Name == serve.ScopeName {
			for _, c := range sc.Counters {
				counters[c.Name] = c.Value
			}
		}
	}
	if fallbacks, ok := counters[serve.CtrDecodeFallbacks]; !ok || counters[serve.CtrRequests] != 12 || fallbacks != 0 {
		t.Errorf("%s = %d, %s = %d; want 12 bodies, all on the canonical parser",
			serve.CtrRequests, counters[serve.CtrRequests], serve.CtrDecodeFallbacks, counters[serve.CtrDecodeFallbacks])
	}
}

// TestMakeBodiesDeterministic pins the request-mix contract: same
// config, same bytes.
func TestMakeBodiesDeterministic(t *testing.T) {
	cfg := config{n: 6, algos: []string{"bkrus", "bkst"}, sinks: 40, sweep: 3, seed: 9}
	a, b := makeBodies(cfg), makeBodies(cfg)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between runs", i)
		}
	}
	// Steiner nets are capped while spanning nets are not.
	var big, capped serve.BuildRequest
	if err := json.Unmarshal(a[0], &big); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(a[1], &capped); err != nil {
		t.Fatal(err)
	}
	if len(big.Nets[0].Sinks) != 40 || len(capped.Nets[0].Sinks) != 24 {
		t.Errorf("sink counts = %d, %d; want 40 (bkrus), 24 (bkst cap)",
			len(big.Nets[0].Sinks), len(capped.Nets[0].Sinks))
	}
}

// TestRunExpectShed saturates a workers=1 queue=0 daemon whose single
// worker is parked on a never-finishing build, so every loadgen request
// sheds, and checks the 429/shed-counter accounting.
func TestRunExpectShed(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := engine.NewRegistry()
	reg.Register(engine.Info{Name: "block", Kind: engine.Spanning, Doc: "parks until released"},
		func(ctx context.Context, in *inst.Instance, p engine.Params) (engine.Result, error) {
			select {
			case <-release:
				return engine.Result{Tree: graph.NewTree(in.N())}, nil
			case <-ctx.Done():
				return engine.Result{}, ctx.Err()
			}
		})
	addr, ts := serveURL(t, serve.Config{
		Registry:       reg,
		Workers:        1,
		Queue:          -1, // no waiting: a busy worker sheds immediately
		DefaultTimeout: 30 * time.Second,
	})

	// Park the worker.
	parked := make(chan struct{})
	go func() {
		body := `{"nets":[{"algo":"block","source":{"x":0,"y":0},"sinks":[{"x":1,"y":1}]}]}`
		resp, err := http.Post(ts.URL+"/v1/build", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		close(parked)
	}()
	waitBusy(t, ts.URL)

	var out bytes.Buffer
	cfg := config{
		addr: addr, n: 5, c: 2,
		algos: []string{"block"}, sinks: 2, seed: 3,
		expectShed: true,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run -expect-shed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "shed accounting: 5 429s observed, shed counter 5") {
		t.Errorf("shed accounting line missing:\n%s", out.String())
	}

	release <- struct{}{}
	<-parked
}

// waitBusy polls /metrics until the inflight gauge shows the parked
// request holding the only worker slot.
func waitBusy(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 500; i++ {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range snap.Scopes {
			if sc.Name != serve.ScopeName {
				continue
			}
			for _, g := range sc.Gauges {
				if g.Name == serve.GaugeInflight && g.Value >= 1 {
					return
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("worker never became busy")
}
