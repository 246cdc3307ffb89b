// Command bmstreed is the tree-construction service daemon: a
// long-running HTTP/JSON server that builds bounded path length
// spanning and Steiner trees through the internal/engine registry, with
// bounded-queue admission control, an instance cache, per-request
// deadlines, and graceful shutdown. All serving logic lives in
// internal/serve; this main only parses flags and owns the process
// lifecycle.
//
// Usage:
//
//	bmstreed [-addr :8344] [-workers N] [-queue N] [-cache-size N]
//	         [-cache-bytes N] [-sweep-workers N]
//	         [-default-timeout 5s] [-max-timeout 60s] [-drain 15s]
//
// Endpoints: POST /v1/build (batch construction), GET /v1/algos,
// GET /healthz, GET /metrics (obs snapshot JSON), /debug/pprof.
// SERVING.md is the API reference and operator runbook; OBSERVABILITY.md
// catalogues the serve-scope metrics.
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503, new
// builds are rejected with 503, in-flight requests get up to -drain to
// finish, then the process exits 0. A second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file (for scripts wrapping port 0)")

		workers    = flag.Int("workers", 0, "concurrent build requests (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", serve.DefaultQueue, "requests allowed to wait for a worker slot (-1 = none: shed immediately)")
		cacheSize  = flag.Int("cache-size", serve.DefaultCacheSize, "resident instance-cache entries (-1 = disable the cache)")
		cacheBytes = flag.Int64("cache-bytes", 0, "byte budget for resident instance-cache state (0 = unbounded, entry count only)")
		sweepW     = flag.Int("sweep-workers", 0, "workers per eps_sweep net (0 = GOMAXPROCS, 1 = serial; results are identical)")

		defTimeout = flag.Duration("default-timeout", serve.DefaultTimeout, "per-request deadline when the request carries no timeout_ms")
		maxTimeout = flag.Duration("max-timeout", serve.DefaultMaxWait, "upper clamp on client-requested timeouts")
		maxBatch   = flag.Int("max-batch", serve.DefaultMaxBatch, "nets per request")
		maxPoints  = flag.Int("max-points", serve.DefaultMaxPoints, "terminals per net")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	reg.SetLabel("binary", "bmstreed")

	srv := serve.New(serve.Config{
		Workers:        *workers,
		Queue:          normalize(*queue),
		CacheSize:      normalize(*cacheSize),
		CacheBytes:     *cacheBytes,
		SweepWorkers:   *sweepW,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBatch:       *maxBatch,
		MaxPoints:      *maxPoints,
		Obs:            reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("bmstreed: listening on %s\n", bound)

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until a shutdown signal; the signal handler drains and then
	// closes the listener, which unblocks Serve with ErrServerClosed.
	done := make(chan error, 1)
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Printf("bmstreed: %v: draining (up to %v)\n", sig, *drain)
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		go func() { // a second signal aborts the drain
			<-sigs
			cancel()
		}()
		done <- httpSrv.Shutdown(ctx)
	}()

	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if err := <-done; err != nil {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	fmt.Println("bmstreed: drained, bye")
}

// normalize maps the CLI convention (-1 = none) onto the serve.Config
// convention (negative = none, 0 = default).
func normalize(v int) int {
	if v < 0 {
		return -1
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bmstreed:", err)
	os.Exit(1)
}
