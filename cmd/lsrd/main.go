// Command lsrd is the compile-and-run daemon: a long-lived HTTP service
// over the allocator pipeline, built for concurrent workloads. It keeps
// a two-tier content-addressed compilation cache (an in-memory LRU over
// an optional shared on-disk store, so restarts and horizontal replicas
// skip each other's compilations), bounds concurrency with a worker
// pool that sheds overload with 429 (Retry-After set; per-tenant
// admission quotas via the tenant header), and runs every program under
// an execution fuel budget so a looping submission terminates
// deterministically instead of wedging a worker. On SIGTERM it drains:
// admission stops (503 + Retry-After, /healthz reports draining so the
// gate routes away) and in-flight work finishes before exit.
//
// Usage:
//
//	lsrd [-addr :8377] [-workers N] [-queue N] [-timeout 10s]
//	     [-fuel N] [-maxfuel N] [-cache N] [-store DIR]
//	     [-batchmax N] [-tenant-inflight N] [-tenant-maxfuel N]
//	     [-draintimeout 20s]
//
// Endpoints:
//
//	POST /v1/compile  {"source": "...", "options": {...}, "verify": bool, "dump": bool}
//	POST /v1/batch    {"items": [compile requests...]}
//	POST /v1/run      {"source": "...", "options": {...}, "max_steps": N, "validate": bool}
//	POST /v1/verify   {"source": "...", "options": {...}}
//	POST /v1/lint     {"source": "...", "options": {...}}
//	GET  /healthz     liveness probe (503 while draining)
//	GET  /metrics     Prometheus text metrics
//
// /v1/verify and /v1/lint return the same findings JSON that
// `lsrc -verify -json` and `lsrc -lint -json` print.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8377", "listen address")
		workers = flag.Int("workers", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 64, "max requests queued beyond the running ones before shedding 429")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request deadline (queue wait)")
		fuel    = flag.Int64("fuel", 50_000_000, "default execution fuel (steps) for /v1/run")
		maxFuel = flag.Int64("maxfuel", 2_000_000_000, "largest fuel budget a request may ask for")
		cache   = flag.Int("cache", 256, "compilation cache capacity (programs)")

		storeDir = flag.String("store", "", "on-disk compilation store directory (empty = memory-only)")
		batchMax = flag.Int("batchmax", 64, "max units per /v1/batch request")
		tenantIn = flag.Int("tenant-inflight", 0, "per-tenant admitted-request quota (0 = off)")
		tenantMF = flag.Int64("tenant-maxfuel", 0, "per-tenant fuel ceiling for /v1/run (0 = off)")
		drainTO  = flag.Duration("draintimeout", 20*time.Second, "max time to finish in-flight work on SIGTERM")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	svc, err := service.NewWithError(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		DefaultFuel:    *fuel,
		MaxFuel:        *maxFuel,
		CacheEntries:   *cache,
		StoreDir:       *storeDir,
		MaxBatchItems:  *batchMax,
		TenantInflight: *tenantIn,
		TenantMaxFuel:  *tenantMF,
	}, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsrd:", err)
		os.Exit(1)
	}

	// Bind before serving so the log names the address actually bound:
	// with -addr 127.0.0.1:0 the kernel picks the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsrd:", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("lsrd listening", "addr", ln.Addr().String(), "store", *storeDir)
		errCh <- srv.Serve(ln)
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lsrd:", err)
			os.Exit(1)
		}
	case sig := <-stop:
		// Graceful drain: stop admitting (everything new sheds with
		// 503/draining and /healthz flips, so the gate and LBs route
		// away), let in-flight requests finish, then close the
		// listener. Each store entry was written whole when its compile
		// finished, so the store needs nothing more.
		logger.Info("draining", "signal", sig.String())
		svc.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := svc.DrainWait(ctx); err != nil {
			logger.Error("drain incomplete", "err", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lsrd: shutdown:", err)
			os.Exit(1)
		}
		logger.Info("drained cleanly")
	}
}
