// Package service is the serving layer over the compiler, verifier,
// optimality analyzer and VM: a concurrent compile-and-run service with
// a two-tier content-addressed compilation cache (in-memory LRU over a
// shared on-disk store, so restarts and horizontal replicas share
// compilations), a bounded worker pool that sheds load instead of
// collapsing (with per-tenant admission quotas), execution fuel so
// hostile programs cannot wedge a worker, graceful draining, and
// Prometheus-format metrics. cmd/lsrd wraps it in an HTTP daemon and
// cmd/lsrgate shards requests across replicas; the error taxonomy
// (Kind) is shared with the lsrc CLI so batch and served failures
// report identically.
//
// Endpoints:
//
//	POST /v1/compile  compile (optionally verify), return static stats
//	POST /v1/batch    compile many units under one pool admission
//	POST /v1/run      compile and execute under a fuel budget
//	POST /v1/verify   translation-validate, return a findings report
//	POST /v1/lint     optimality-analyze, return a findings report
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     Prometheus text metrics
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/findings"
	"repro/internal/prim"
	"repro/internal/service/metrics"
	"repro/internal/store"
	"repro/internal/verify"
	"repro/internal/vm"
)

// Config tunes the service.
type Config struct {
	// Workers bounds concurrently executing requests (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the ones
	// running; an arrival past Workers+QueueDepth is shed with 429.
	QueueDepth int
	// RequestTimeout bounds how long a request may wait in the queue
	// (and is the deadline attached to its context).
	RequestTimeout time.Duration
	// DefaultFuel is the step budget for /v1/run when the request does
	// not set one; MaxFuel caps what a request may ask for.
	DefaultFuel int64
	MaxFuel     int64
	// CacheEntries sizes the compilation cache (LRU).
	CacheEntries int
	// MaxSourceBytes bounds accepted request bodies.
	MaxSourceBytes int64
	// MaxOutputBytes truncates a run's captured display output.
	MaxOutputBytes int64
	// StoreDir roots the on-disk compilation store (the durable tier
	// under the LRU, shared by restarts and replicas). Empty disables
	// the disk tier; the service is then memory-only as before.
	StoreDir string
	// MaxBatchItems bounds the number of units one /v1/batch request
	// may carry.
	MaxBatchItems int
	// TenantHeader names the header carrying the tenant identity for
	// per-tenant quotas (default X-Lsr-Tenant). Requests without the
	// header share the anonymous pool and are only subject to the
	// global admission limits.
	TenantHeader string
	// TenantInflight caps how many requests one tenant may have
	// admitted at once (0 disables per-tenant admission quotas).
	TenantInflight int
	// TenantMaxFuel caps the fuel a tenant-attributed run may request;
	// it is applied after the global MaxFuel clamp (0 = no extra cap).
	TenantMaxFuel int64
}

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		Workers:        runtime.GOMAXPROCS(0),
		QueueDepth:     64,
		RequestTimeout: 10 * time.Second,
		DefaultFuel:    50_000_000,
		MaxFuel:        2_000_000_000,
		CacheEntries:   256,
		MaxSourceBytes: 1 << 20,
		MaxOutputBytes: 1 << 20,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.DefaultFuel <= 0 {
		c.DefaultFuel = d.DefaultFuel
	}
	if c.MaxFuel <= 0 {
		c.MaxFuel = d.MaxFuel
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = d.CacheEntries
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = d.MaxSourceBytes
	}
	if c.MaxOutputBytes <= 0 {
		c.MaxOutputBytes = d.MaxOutputBytes
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Lsr-Tenant"
	}
	return c
}

// Error is a taxonomy-classified service failure.
type Error struct {
	Kind     Kind
	Message  string
	Findings []findings.Finding
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Kind, e.Message) }

func errOf(kind Kind, format string, args ...any) *Error {
	return &Error{Kind: kind, Message: fmt.Sprintf(format, args...)}
}

// Service is the serving layer. Create with New; it is safe for
// concurrent use.
type Service struct {
	cfg      Config
	cache    *Cache
	store    *store.Store
	sem      chan struct{}
	admitted atomic.Int64
	draining atomic.Bool
	tenants  *tenantTable
	log      *slog.Logger

	reg           *metrics.Registry
	reqs          *metrics.CounterVec
	latency       *metrics.HistogramVec
	inflight      *metrics.Gauge
	shed          *metrics.Counter
	drainGauge    *metrics.Gauge
	fuelExhausted *metrics.Counter
	compiles      *metrics.CounterVec
	runs          *metrics.Counter
	batchItems    *metrics.CounterVec
	saveSites     *metrics.CounterVec
	restoreSites  *metrics.CounterVec
	shuffleTemps  *metrics.CounterVec
	tenantReqs    *metrics.CounterVec
	tenantShed    *metrics.CounterVec
}

// NewWithError creates a service. logger may be nil (logs are
// discarded). A non-empty cfg.StoreDir opens the on-disk store,
// creating the directory if needed; a store that cannot be opened is
// returned as the error, with no service.
func NewWithError(cfg Config, logger *slog.Logger) (*Service, error) {
	cfg = cfg.withDefaults()
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Service{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries),
		sem:     make(chan struct{}, cfg.Workers),
		tenants: newTenantTable(),
		log:     logger,
		reg:     metrics.NewRegistry(),
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	s.reqs = s.reg.NewCounterVec("lsrd_requests_total",
		"Requests by endpoint and status code.", "endpoint", "code")
	s.latency = s.reg.NewHistogramVec("lsrd_request_seconds",
		"Request latency by endpoint.", metrics.DefBuckets, "endpoint")
	s.inflight = s.reg.NewGauge("lsrd_inflight_requests",
		"Requests currently admitted (running or queued).")
	s.shed = s.reg.NewCounter("lsrd_shed_total",
		"Requests rejected with 429 because the queue was full.")
	s.drainGauge = s.reg.NewGauge("lsrd_draining",
		"1 while the daemon is draining (admitting nothing new).")
	s.fuelExhausted = s.reg.NewCounter("lsrd_fuel_exhausted_total",
		"Runs terminated by the execution fuel budget.")
	s.compiles = s.reg.NewCounterVec("lsrd_compiles_total",
		"Actual (non-cached) compilations by save strategy.", "saves")
	s.runs = s.reg.NewCounter("lsrd_runs_total",
		"Program executions.")
	s.batchItems = s.reg.NewCounterVec("lsrd_batch_items_total",
		"Units processed through /v1/batch by per-item outcome kind (ok or error kind).", "kind")
	s.tenantReqs = s.reg.NewCounterVec("lsrd_tenant_requests_total",
		"Requests attributed to a tenant header.", "tenant")
	s.tenantShed = s.reg.NewCounterVec("lsrd_tenant_quota_rejected_total",
		"Requests rejected with 429 by the per-tenant admission quota.", "tenant")
	s.saveSites = s.reg.NewCounterVec("lsrd_compile_save_sites_total",
		"Static save instructions emitted, by save strategy.", "saves")
	s.restoreSites = s.reg.NewCounterVec("lsrd_compile_restore_sites_total",
		"Static restore instructions emitted, by save strategy.", "saves")
	s.shuffleTemps = s.reg.NewCounterVec("lsrd_compile_shuffle_temps_total",
		"Shuffle temporaries introduced, by save strategy.", "saves")
	s.reg.NewCounterFunc("lsrd_cache_hits_total",
		"Compilation cache hits.", func() int64 { return s.cache.Stats().Hits })
	s.reg.NewCounterFunc("lsrd_cache_misses_total",
		"Compilation cache misses.", func() int64 { return s.cache.Stats().Misses })
	s.reg.NewCounterFunc("lsrd_cache_evictions_total",
		"Compilation cache LRU evictions.", func() int64 { return s.cache.Stats().Evictions })
	s.reg.NewCounterFunc("lsrd_cache_dedup_total",
		"Requests collapsed into an in-flight identical compile.", func() int64 { return s.cache.Stats().Deduped })
	s.reg.NewGaugeFunc("lsrd_cache_entries",
		"Compiled programs currently cached.", func() int64 { return int64(s.cache.Len()) })
	if s.store != nil {
		s.reg.NewCounterFunc("lsrd_store_hits_total",
			"On-disk store hits (compilations served without recompiling).",
			func() int64 { return s.store.Stats().Hits })
		s.reg.NewCounterFunc("lsrd_store_misses_total",
			"On-disk store misses.", func() int64 { return s.store.Stats().Misses })
		s.reg.NewCounterFunc("lsrd_store_corrupt_total",
			"Store entries rejected as corrupt/truncated/version-skewed (read as misses).",
			func() int64 { return s.store.Stats().Corrupt })
		s.reg.NewCounterFunc("lsrd_store_put_errors_total",
			"Failed store writes (service continued from memory).",
			func() int64 { return s.store.Stats().PutErrors })
		s.reg.NewGaugeFunc("lsrd_store_entries",
			"Entries in the on-disk store's index.", func() int64 { return int64(s.store.Len()) })
	}
	return s, nil
}

// Cache exposes the compilation cache (tests and diagnostics).
func (s *Service) Cache() *Cache { return s.cache }

// Store exposes the on-disk tier (nil when disabled).
func (s *Service) Store() *store.Store { return s.store }

// StartDrain moves the service into draining: every subsequent request
// is rejected with 503/draining (Retry-After set) and /healthz reports
// draining, so load balancers and the gate route away while in-flight
// work finishes.
func (s *Service) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.drainGauge.Set(1)
		s.log.Info("draining: admission stopped")
	}
}

// Draining reports whether StartDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// DrainWait blocks until every admitted request has finished (or ctx
// expires), then flushes the on-disk store index. Call after
// StartDrain; the HTTP server's own Shutdown handles the connections.
func (s *Service) DrainWait(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for s.admitted.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d requests still in flight: %w", s.admitted.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	return s.FlushStore()
}

// FlushStore writes the on-disk store's index (no-op when the store is
// disabled).
func (s *Service) FlushStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Flush()
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.endpoint("compile", s.handleCompile))
	mux.HandleFunc("POST /v1/run", s.endpoint("run", s.handleRun))
	mux.HandleFunc("POST /v1/verify", s.endpoint("verify", s.handleVerify))
	mux.HandleFunc("POST /v1/lint", s.endpoint("lint", s.handleLint))
	mux.HandleFunc("POST /v1/batch", s.endpoint("batch", s.handleBatch))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WriteText(w)
	})
	return mux
}

// handlerFunc is one endpoint's logic: it returns the response body and
// status, or a classified error.
type handlerFunc func(ctx context.Context, body []byte) (any, int, *Error)

// endpoint wraps admission control, deadlines, body limits, metrics and
// structured logging around a handler.
func (s *Service) endpoint(name string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := 0
		defer func() {
			s.reqs.With(name, fmt.Sprintf("%d", status)).Inc()
			s.latency.With(name).Observe(time.Since(start).Seconds())
			s.log.Info("request",
				"endpoint", name,
				"status", status,
				"duration", time.Since(start),
				"remote", r.RemoteAddr)
		}()

		if s.draining.Load() {
			status = KindDraining.HTTPStatus()
			writeError(w, status, errOf(KindDraining, "daemon is draining; retry another replica"))
			return
		}

		body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxSourceBytes+1))
		if err != nil {
			status = http.StatusBadRequest
			writeError(w, status, errOf(KindBadRequest, "reading body: %v", err))
			return
		}
		if int64(len(body)) > s.cfg.MaxSourceBytes {
			status = http.StatusBadRequest
			writeError(w, status, errOf(KindBadRequest, "body exceeds %d bytes", s.cfg.MaxSourceBytes))
			return
		}

		tenant := r.Header.Get(s.cfg.TenantHeader)
		if tenant != "" {
			s.tenantReqs.With(tenant).Inc()
		}
		release, qerr := s.tenantAcquire(tenant)
		if qerr != nil {
			s.tenantShed.With(tenant).Inc()
			status = qerr.Kind.HTTPStatus()
			writeError(w, status, qerr)
			return
		}
		defer release()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ctx = withTenant(ctx, tenant)
		if aerr := s.acquire(ctx); aerr != nil {
			if aerr.Kind == KindOverload {
				s.shed.Inc()
			}
			status = aerr.Kind.HTTPStatus()
			writeError(w, status, aerr)
			return
		}
		defer s.release()

		resp, code, herr := h(ctx, body)
		if herr != nil {
			if herr.Kind == KindFuel {
				s.fuelExhausted.Inc()
			}
			status = herr.Kind.HTTPStatus()
			writeError(w, status, herr)
			return
		}
		status = code
		writeJSON(w, code, resp)
	}
}

// acquire admits a request into the bounded pool: it counts the request
// against Workers+QueueDepth (shedding with KindOverload past that) and
// then waits for a worker slot until the deadline.
func (s *Service) acquire(ctx context.Context) *Error {
	limit := int64(s.cfg.Workers + s.cfg.QueueDepth)
	if s.admitted.Add(1) > limit {
		s.admitted.Add(-1)
		return errOf(KindOverload, "queue full (%d running or queued)", limit)
	}
	s.inflight.Add(1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.admitted.Add(-1)
		s.inflight.Add(-1)
		return errOf(KindTimeout, "timed out waiting for a worker: %v", ctx.Err())
	}
}

func (s *Service) release() {
	<-s.sem
	s.admitted.Add(-1)
	s.inflight.Add(-1)
}

// compileCached compiles source under opts through the two-tier
// content-addressed cache — in-memory LRU over the shared on-disk
// store — recording per-strategy compile metrics on actual compiles.
// The reported hit covers both tiers: an LRU hit, a singleflight join,
// or a store hit all mean the request did not trigger a compile.
func (s *Service) compileCached(src string, opts compiler.Options) (*compiler.Compiled, CacheKey, bool, *Error) {
	key := KeyFor(src, opts)
	storeHit := false
	val, hit, err := s.cache.GetOrCompile(key, func() (*compiler.Compiled, error) {
		// Miss in the fast tier: consult the durable tier before
		// compiling. Lint-bearing compilations are never persisted (the
		// codec refuses them), so skip the read too — a stored plain
		// entry under a lint key cannot exist.
		if s.store != nil && !opts.Lint {
			if c, ok := s.store.Get(store.Key(key)); ok {
				storeHit = true
				return c, nil
			}
		}
		c, cerr := compiler.Compile(src, opts)
		if cerr == nil {
			saves := opts.Saves.String()
			s.compiles.With(saves).Inc()
			s.saveSites.With(saves).Add(int64(c.Stats.SaveSites))
			s.restoreSites.With(saves).Add(int64(c.Stats.RestoreSites))
			s.shuffleTemps.With(saves).Add(int64(c.Stats.ShuffleTemps))
			if s.store != nil && !opts.Lint {
				if perr := s.store.Put(store.Key(key), c); perr != nil {
					s.log.Warn("store put failed", "key", key.String(), "err", perr)
				}
			}
		}
		return c, cerr
	})
	hit = hit || storeHit
	if err != nil {
		kind := Classify(StageCompile, err)
		serr := &Error{Kind: kind, Message: err.Error()}
		var verr *verify.Error
		if errors.As(err, &verr) {
			serr.Findings = verify.Findings(verr.Violations)
		}
		return nil, key, false, serr
	}
	return val, key, hit, nil
}

func decodeRequest(body []byte, into any) *Error {
	if err := json.Unmarshal(body, into); err != nil {
		return errOf(KindBadRequest, "decoding request: %v", err)
	}
	return nil
}

func requireSource(src string) *Error {
	if src == "" {
		return errOf(KindBadRequest, "source must not be empty")
	}
	return nil
}

func (s *Service) handleCompile(ctx context.Context, body []byte) (any, int, *Error) {
	var req CompileRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, 0, err
	}
	resp, err := s.compileUnit(&req)
	if err != nil {
		return nil, 0, err
	}
	return *resp, http.StatusOK, nil
}

func (s *Service) handleRun(ctx context.Context, body []byte) (any, int, *Error) {
	var req RunRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, 0, err
	}
	if err := requireSource(req.Source); err != nil {
		return nil, 0, err
	}
	opts, oerr := req.Options.toCompiler()
	if oerr != nil {
		return nil, 0, errOf(KindBadRequest, "%v", oerr)
	}
	mode, merr := counterMode(req.Counters)
	if merr != nil {
		return nil, 0, errOf(KindBadRequest, "%v", merr)
	}
	c, key, hit, err := s.compileCached(req.Source, opts)
	if err != nil {
		return nil, 0, err
	}

	fuel := req.MaxSteps
	if fuel <= 0 {
		fuel = s.cfg.DefaultFuel
	}
	if fuel > s.cfg.MaxFuel {
		fuel = s.cfg.MaxFuel
	}
	// Tenant fuel quota: a tenant-attributed run is clamped to the
	// per-tenant ceiling on top of the global one.
	if t := tenantFrom(ctx); t != "" && s.cfg.TenantMaxFuel > 0 && fuel > s.cfg.TenantMaxFuel {
		fuel = s.cfg.TenantMaxFuel
	}
	var out limitedBuffer
	out.limit = int(s.cfg.MaxOutputBytes)
	m := vm.New(c.Program, &out)
	m.Counting = mode
	m.MaxSteps = fuel
	m.ValidateRestores = req.Validate
	s.runs.Inc()
	v, rerr := m.Run()
	if rerr != nil {
		return nil, 0, &Error{Kind: Classify(StageRun, rerr), Message: rerr.Error()}
	}
	return RunResponse{
		Key:      key.String(),
		Cached:   hit,
		Value:    prim.WriteString(v),
		Output:   out.String(),
		Fuel:     fuel,
		Counters: summarizeCounters(&m.Counters),
	}, http.StatusOK, nil
}

func (s *Service) handleVerify(ctx context.Context, body []byte) (any, int, *Error) {
	var req CheckRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, 0, err
	}
	if err := requireSource(req.Source); err != nil {
		return nil, 0, err
	}
	opts, oerr := req.Options.toCompiler()
	if oerr != nil {
		return nil, 0, errOf(KindBadRequest, "%v", oerr)
	}
	opts.Verify = true
	_, _, _, err := s.compileCached(req.Source, opts)
	if err != nil {
		if err.Kind == KindVerify {
			// The response body is exactly what lsrc -verify -json
			// prints: the findings report, with the taxonomy status.
			rep := findings.Report{Tool: "verify", Findings: err.Findings}
			return rep, KindVerify.HTTPStatus(), nil
		}
		return nil, 0, err
	}
	return findings.Report{Tool: "verify", Findings: []findings.Finding{}}, http.StatusOK, nil
}

func (s *Service) handleLint(ctx context.Context, body []byte) (any, int, *Error) {
	var req CheckRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, 0, err
	}
	if err := requireSource(req.Source); err != nil {
		return nil, 0, err
	}
	opts, oerr := req.Options.toCompiler()
	if oerr != nil {
		return nil, 0, errOf(KindBadRequest, "%v", oerr)
	}
	opts.Lint = true
	c, _, _, err := s.compileCached(req.Source, opts)
	if err != nil {
		return nil, 0, err
	}
	// Exactly lsrc -lint -json: the findings plus the waste totals.
	// Waste does not fail the request — the report is the product; the
	// client applies its own gate (lsrc exits with KindWaste's code).
	return findings.Report{
		Tool:     "lint",
		Findings: c.Lint.Structured(),
		Summary:  c.Lint.Totals,
	}, http.StatusOK, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, e *Error) {
	// Backoff contract: every shed response (429 overload/quota, 503
	// draining) tells the client how long to back off before retrying.
	if ra := e.Kind.RetryAfterSeconds(); ra > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", ra))
	}
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{
		Kind:     string(e.Kind),
		Message:  e.Message,
		Findings: e.Findings,
	}})
}

// limitedBuffer captures program output up to a byte limit, discarding
// the rest (the run itself is not failed for being chatty).
type limitedBuffer struct {
	buf   []byte
	limit int
}

func (b *limitedBuffer) Write(p []byte) (int, error) {
	if room := b.limit - len(b.buf); room > 0 {
		if len(p) > room {
			b.buf = append(b.buf, p[:room]...)
		} else {
			b.buf = append(b.buf, p...)
		}
	}
	return len(p), nil
}

func (b *limitedBuffer) String() string { return string(b.buf) }
