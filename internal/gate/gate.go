// Package gate is the fleet front for lsrd replicas: an HTTP proxy
// that consistent-hash-shards compile/run traffic across N backends by
// the same content-addressed cache key the service computes, so each
// replica's two-tier cache (in-memory LRU over the shared on-disk
// store) sees a stable partition of the key space and hit rates
// survive both restarts and fleet growth.
//
// The gate keeps per-backend health (a /healthz probe loop plus
// passive marking on connection failure), walks the ring past down
// backends, and re-sends a request to the next owner, with jittered
// exponential backoff, only when no backend can have received it: the
// connection failed before the request was written, as on a refused
// dial. A backend that drops the connection after the request was
// written may have run it, or died running it, so that client gets a
// 502 and no other backend sees the request. It exposes its own
// Prometheus-text metrics: per-backend request/latency/error series,
// health gauges, and a ring-rebalance counter.
package gate

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/service/metrics"
)

// Config configures a Gate.
type Config struct {
	// Backends are the lsrd base URLs (e.g. "http://127.0.0.1:8378").
	Backends []string
	// VNodes is the virtual-node count per backend (0 = DefaultVNodes).
	VNodes int
	// MaxRetries bounds additional attempts after a connection failure
	// that happened before the request was written (0 = default 2).
	// HTTP responses and requests a backend may have received are
	// never retried.
	MaxRetries int
	// RetryBase is the backoff base before jitter (0 = 25ms).
	RetryBase time.Duration
	// HealthInterval is the /healthz probe period (0 = 2s).
	HealthInterval time.Duration
	// Timeout is the per-attempt request deadline (0 = 30s).
	Timeout time.Duration
	// MaxBodyBytes bounds the buffered request body (0 = 8 MiB). The
	// body must be buffered so a connection failure can be retried
	// against the next backend.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Gate proxies requests to lsrd replicas, sharded by cache key.
type Gate struct {
	cfg    Config
	ring   *Ring
	client *http.Client
	log    *slog.Logger
	reg    *metrics.Registry

	requests  *metrics.CounterVec   // lsrgate_requests_total{backend,code}
	latency   *metrics.HistogramVec // lsrgate_request_seconds{backend}
	connErrs  *metrics.CounterVec   // lsrgate_connect_errors_total{backend}
	up        *metrics.GaugeVec     // lsrgate_backend_up{backend}
	retries   *metrics.Counter      // lsrgate_retries_total
	noBackend *metrics.Counter      // lsrgate_no_backend_total
}

// New builds a Gate over the configured backends; all start healthy
// until the first probe or connection failure says otherwise.
func New(cfg Config, logger *slog.Logger) (*Gate, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Backends, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	g := &Gate{
		cfg:    cfg,
		ring:   ring,
		client: &http.Client{Timeout: cfg.Timeout},
		log:    logger,
		reg:    metrics.NewRegistry(),
	}
	g.requests = g.reg.NewCounterVec("lsrgate_requests_total",
		"Proxied requests by backend and response code.", "backend", "code")
	g.latency = g.reg.NewHistogramVec("lsrgate_request_seconds",
		"Proxied request latency by backend.", metrics.DefBuckets, "backend")
	g.connErrs = g.reg.NewCounterVec("lsrgate_connect_errors_total",
		"Connection-level failures by backend.", "backend")
	g.up = g.reg.NewGaugeVec("lsrgate_backend_up",
		"Backend health (1 = routable).", "backend")
	g.retries = g.reg.NewCounter("lsrgate_retries_total",
		"Requests re-sent to another backend after a connection failure before the request was written.")
	g.noBackend = g.reg.NewCounter("lsrgate_no_backend_total",
		"Requests dropped because no backend was healthy.")
	g.reg.NewCounterFunc("lsrgate_rebalance_total",
		"Ring rebalances (backend health transitions).", ring.Rebalances)
	for _, b := range cfg.Backends {
		g.up.With(b).Set(1)
	}
	return g, nil
}

// Ring exposes the gate's hash ring (tests and diagnostics).
func (g *Gate) Ring() *Ring { return g.ring }

// Handler returns the gate's HTTP mux: every /v1/ path proxies,
// /healthz reports gate liveness (503 when no backend is routable),
// /metrics renders the gate's own registry.
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", g.proxy)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if g.ring.HealthyCount() == 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"no-backends"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		g.reg.WriteText(w)
	})
	return mux
}

// shardHash positions a request on the ring. Compile/run/verify/lint
// bodies carry {source, options}; their cache key is recomputed here
// exactly as the replica will compute it, so the request lands on the
// replica that owns that key. A batch routes by its first item's key
// (fleet clients group related units, and any replica can serve any
// item — affinity is a hit-rate optimization, not a correctness
// requirement). Bodies the gate cannot parse hash as raw bytes: still
// deterministic, so retried clients keep hitting the same replica.
func shardHash(path string, body []byte) uint64 {
	type unit struct {
		Source  string                  `json:"source"`
		Options *service.OptionsRequest `json:"options"`
	}
	var u unit
	if strings.HasSuffix(path, "/batch") {
		var b struct {
			Items []unit `json:"items"`
		}
		if json.Unmarshal(body, &b) == nil && len(b.Items) > 0 {
			u = b.Items[0]
		}
	} else {
		if json.Unmarshal(body, &u) != nil {
			u = unit{}
		}
	}
	if u.Source != "" {
		if key, err := service.RequestKey(u.Source, u.Options); err == nil {
			return binary.BigEndian.Uint64(key[:8])
		}
	}
	return KeyHash(body)
}

// proxy forwards one request to the key's owner, failing over with
// jittered backoff only on connection errors before the request was
// written.
func (g *Gate) proxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		http.Error(w, `{"error":{"kind":"bad-request","message":"reading body"}}`, http.StatusBadRequest)
		return
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		http.Error(w, `{"error":{"kind":"bad-request","message":"body too large"}}`, http.StatusRequestEntityTooLarge)
		return
	}
	h := shardHash(r.URL.Path, body)

	for attempt := 0; ; attempt++ {
		idx, ok := g.ring.Pick(h)
		if !ok {
			g.noBackend.Inc()
			http.Error(w, `{"error":{"kind":"overload","message":"no healthy backend"}}`, http.StatusServiceUnavailable)
			return
		}
		backend := g.ring.Backends()[idx]
		resp, written, err := g.send(r, backend, body)
		if err == nil {
			g.copyResponse(w, resp, backend)
			return
		}
		// Connection-level failure: mark the backend down (the probe
		// loop restores it). Once the request was written the backend
		// may have read and run it, and a program that kills its
		// replica would kill the next one too, so only a request that
		// was never written walks to the next owner.
		g.connErrs.With(backend).Inc()
		g.markDown(idx, err)
		if written {
			http.Error(w, `{"error":{"kind":"overload","message":"backend dropped the connection"}}`, http.StatusBadGateway)
			return
		}
		if attempt >= g.cfg.MaxRetries {
			http.Error(w, `{"error":{"kind":"overload","message":"backends unreachable"}}`, http.StatusBadGateway)
			return
		}
		g.retries.Inc()
		time.Sleep(jitteredBackoff(g.cfg.RetryBase, attempt))
	}
}

// jitteredBackoff is base·2^attempt scaled by a random factor in
// [0.5, 1.5), capped at 1s — enough spread that a fleet of clients
// retrying a dead backend does not re-converge in lockstep.
func jitteredBackoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > time.Second {
		d = time.Second
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// send issues one attempt against a backend, recording latency and
// the response code. A non-nil error means the transport failed;
// written then reports whether it had begun writing the request, after
// which the backend may have received it.
func (g *Gate) send(r *http.Request, backend string, body []byte) (resp *http.Response, written bool, err error) {
	url := backend + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var wrote atomic.Bool
	ctx := httptrace.WithClientTrace(r.Context(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { wrote.Store(true) },
	})
	req, err := http.NewRequestWithContext(ctx, r.Method, url, strings.NewReader(string(body)))
	if err != nil {
		return nil, false, err
	}
	req.Header = r.Header.Clone()
	start := time.Now()
	resp, err = g.client.Do(req)
	g.latency.With(backend).Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, wrote.Load(), err
	}
	g.requests.With(backend, strconv.Itoa(resp.StatusCode)).Inc()
	return resp, true, nil
}

// copyResponse relays the backend's answer verbatim.
func (g *Gate) copyResponse(w http.ResponseWriter, resp *http.Response, backend string) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Lsr-Backend", backend)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		g.log.Warn("relaying response", "backend", backend, "err", err)
	}
}

// markDown records a passively-detected failure.
func (g *Gate) markDown(idx int, err error) {
	if g.ring.SetAlive(idx, false) {
		backend := g.ring.Backends()[idx]
		g.up.With(backend).Set(0)
		g.log.Warn("backend down", "backend", backend, "err", err)
	}
}

// CheckHealth probes every backend's /healthz once and updates the
// ring. A replica that is draining answers 503, so the gate routes
// away from it before its listener closes.
func (g *Gate) CheckHealth(ctx context.Context) {
	for i, backend := range g.ring.Backends() {
		healthy := g.probe(ctx, backend)
		if g.ring.SetAlive(i, healthy) {
			v := int64(0)
			state := "down"
			if healthy {
				v, state = 1, "up"
			}
			g.up.With(backend).Set(v)
			g.log.Info("backend "+state, "backend", backend)
		}
	}
}

// probe is one /healthz round-trip; any error or non-200 is unhealthy.
func (g *Gate) probe(ctx context.Context, backend string) bool {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// RunHealthChecks probes on the configured interval until ctx ends.
func (g *Gate) RunHealthChecks(ctx context.Context) {
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	g.CheckHealth(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.CheckHealth(ctx)
		}
	}
}

// Metrics renders the gate's registry (tests).
func (g *Gate) Metrics() string {
	var b strings.Builder
	g.reg.WriteText(&b)
	return b.String()
}
