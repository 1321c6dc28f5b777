// Command lsrgate fronts a fleet of lsrd replicas. It consistent-hash
// shards every /v1/ request by the same content-addressed cache key
// the replicas compute, so each replica's two-tier cache sees a stable
// partition of the key space; it probes backend health, fails over
// connection errors that happen before a request is written with
// jittered backoff (a request a backend may have received is answered
// 502, never re-sent), and serves its own Prometheus-text metrics.
//
// Usage:
//
//	lsrgate -backends http://h1:8377,http://h2:8377 [-addr :8376]
//	        [-vnodes 64] [-retries 2] [-health 2s] [-timeout 30s]
//
// Endpoints:
//
//	POST /v1/*     proxied to the owning replica (batch routes by its
//	               first item's key)
//	GET  /healthz  200 while at least one backend is routable
//	GET  /metrics  gate metrics (per-backend requests/latency/errors,
//	               health gauges, ring rebalances)
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
	"strings"
	"syscall"
	"time"

	"repro/internal/gate"
)

func main() {
	var (
		addr     = flag.String("addr", ":8376", "listen address")
		backends = flag.String("backends", "", "comma-separated lsrd base URLs (required)")
		vnodes   = flag.Int("vnodes", gate.DefaultVNodes, "virtual nodes per backend")
		retries  = flag.Int("retries", 2, "max failover attempts after a connection error before the request was written")
		health   = flag.Duration("health", 2*time.Second, "backend health-probe interval")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-attempt request deadline")
	)
	flag.Parse()

	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, strings.TrimRight(b, "/"))
		}
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	g, err := gate.New(gate.Config{
		Backends:       list,
		VNodes:         *vnodes,
		MaxRetries:     *retries,
		HealthInterval: *health,
		Timeout:        *timeout,
	}, logger)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsrgate:", err)
		os.Exit(2)
	}

	// Bind before serving so the log names the address actually bound:
	// with -addr 127.0.0.1:0 the kernel picks the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsrgate:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go g.RunHealthChecks(ctx)

	srv := &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("lsrgate listening", "addr", ln.Addr().String(), "backends", len(list))
		errCh <- srv.Serve(ln)
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lsrgate:", err)
			os.Exit(1)
		}
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer shCancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "lsrgate: shutdown:", err)
			os.Exit(1)
		}
	}
}
