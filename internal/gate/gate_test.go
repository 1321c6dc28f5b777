package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoBackend is a stand-in lsrd replica that reports its own name so
// tests can see where a request landed.
type echoBackend struct {
	name    string
	srv     *httptest.Server
	hits    atomic.Int64
	healthy atomic.Bool
}

func newEchoBackend(t *testing.T, name string) *echoBackend {
	t.Helper()
	b := &echoBackend{name: name}
	b.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		b.hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"backend": b.name, "path": r.URL.Path, "bytes": len(body),
			"tenant": r.Header.Get("X-Lsr-Tenant"),
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !b.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

func testGate(t *testing.T, backends []string, mut func(*Config)) *Gate {
	t.Helper()
	cfg := Config{
		Backends:   backends,
		VNodes:     16,
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
		Timeout:    5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// TestProxyShardsByKey: the same source always lands on the same
// backend (the ring owner of its cache key), and distinct sources
// spread across the fleet.
func TestProxyShardsByKey(t *testing.T) {
	a := newEchoBackend(t, "a")
	b := newEchoBackend(t, "b")
	g := testGate(t, []string{a.srv.URL, b.srv.URL}, nil)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	landed := map[string]string{}
	for i := 0; i < 16; i++ {
		body := fmt.Sprintf(`{"source":"(+ %d %d)"}`, i, i)
		var first string
		for round := 0; round < 3; round++ {
			resp, out := postJSON(t, front.URL+"/v1/compile", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, out)
			}
			var got struct {
				Backend string `json:"backend"`
			}
			if err := json.Unmarshal([]byte(out), &got); err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first = got.Backend
			} else if got.Backend != first {
				t.Fatalf("source %q moved %s→%s across identical requests", body, first, got.Backend)
			}
			if hdr := resp.Header.Get("X-Lsr-Backend"); hdr == "" {
				t.Fatal("missing X-Lsr-Backend header")
			}
		}
		landed[body] = first
	}
	seen := map[string]bool{}
	for _, backend := range landed {
		seen[backend] = true
	}
	if len(seen) != 2 {
		t.Errorf("16 distinct sources all landed on one backend: %v", seen)
	}
	if a.hits.Load() == 0 || b.hits.Load() == 0 {
		t.Errorf("hit spread a=%d b=%d, want both > 0", a.hits.Load(), b.hits.Load())
	}
}

// TestBatchRoutesByFirstItem: a batch shards exactly where a
// single-unit compile of its first item would.
func TestBatchRoutesByFirstItem(t *testing.T) {
	single := `{"source":"(lambda (x) (* x x))"}`
	batch := `{"items":[{"source":"(lambda (x) (* x x))"},{"source":"(other)"}]}`
	if shardHash("/v1/compile", []byte(single)) != shardHash("/v1/batch", []byte(batch)) {
		t.Error("batch did not route by its first item's key")
	}
	// Unparseable bodies still shard deterministically.
	raw := []byte(`{"not json`)
	if shardHash("/v1/compile", raw) != shardHash("/v1/compile", raw) {
		t.Error("raw-body fallback is not deterministic")
	}
	// Equivalent default options spellings share a key (the shard key
	// is the content address, not the request bytes).
	explicit := `{"source":"(lambda (x) (* x x))","options":{"saves":"lazy"}}`
	if shardHash("/v1/compile", []byte(single)) != shardHash("/v1/compile", []byte(explicit)) {
		t.Error("default and explicit lazy-saves requests sharded differently")
	}
}

// TestFailoverRetries: a dead backend's keys fail over to the
// survivor; the gate marks it down, counts the retry, and reports it
// all in /metrics.
func TestFailoverRetries(t *testing.T) {
	live := newEchoBackend(t, "live")
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	g := testGate(t, []string{live.srv.URL, deadURL}, nil)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	for i := 0; i < 16; i++ {
		resp, out := postJSON(t, front.URL+"/v1/compile", fmt.Sprintf(`{"source":"(f %d)"}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, out)
		}
		var got struct {
			Backend string `json:"backend"`
		}
		if err := json.Unmarshal([]byte(out), &got); err != nil {
			t.Fatal(err)
		}
		if got.Backend != "live" {
			t.Fatalf("request %d served by %q", i, got.Backend)
		}
	}
	if !g.Ring().Alive(0) || g.Ring().Alive(1) {
		t.Errorf("health after failover: live=%v dead=%v", g.Ring().Alive(0), g.Ring().Alive(1))
	}
	m := g.Metrics()
	for _, want := range []string{
		`lsrgate_requests_total{backend="` + live.srv.URL + `",code="200"}`,
		`lsrgate_connect_errors_total{backend="` + deadURL + `"}`,
		`lsrgate_backend_up{backend="` + deadURL + `"} 0`,
		`lsrgate_backend_up{backend="` + live.srv.URL + `"} 1`,
		"lsrgate_retries_total",
		"lsrgate_rebalance_total 1",
		`lsrgate_request_seconds_count{backend="` + live.srv.URL + `"}`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestNoResendAfterWrite: a backend that reads the request and then
// drops the connection (as a replica killed by the program it runs
// would) may have acted on it, so the gate answers 502 instead of
// re-sending the request to the next owner.
func TestNoResendAfterWrite(t *testing.T) {
	var hits atomic.Int64
	dropper := func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			t.Error(err)
			return
		}
		hits.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}
	a := httptest.NewServer(http.HandlerFunc(dropper))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(dropper))
	defer b.Close()

	g := testGate(t, []string{a.URL, b.URL}, nil)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	resp, out := postJSON(t, front.URL+"/v1/run", `{"source":"(poison)"}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, out)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("%d backends received the request, want 1", n)
	}
	if m := g.Metrics(); !strings.Contains(m, "lsrgate_retries_total 0\n") {
		t.Errorf("the request was re-sent:\n%s", m)
	}
}

// TestAllBackendsDown: with more dead backends than retry budget the
// gate answers 502 after bounded retries; once every backend is marked
// down the ring is empty and it sheds 503, with /healthz following.
func TestAllBackendsDown(t *testing.T) {
	deadURLs := make([]string, 4)
	for i := range deadURLs {
		dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		deadURLs[i] = dead.URL
		dead.Close()
	}

	g := testGate(t, deadURLs, nil)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	// 4 dead backends, 2 retries: the budget runs out first → 502.
	resp, _ := postJSON(t, front.URL+"/v1/compile", `{"source":"(x)"}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("first request status %d, want 502", resp.StatusCode)
	}
	// That marked 3 of 4 down; the next request kills the last one and
	// finds the ring empty.
	resp, out := postJSON(t, front.URL+"/v1/compile", `{"source":"(x)"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request status %d, want 503: %s", resp.StatusCode, out)
	}
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gate /healthz status %d with no live backends", hresp.StatusCode)
	}
	if !strings.Contains(g.Metrics(), "lsrgate_no_backend_total 1") {
		t.Error("metrics missing lsrgate_no_backend_total")
	}
}

// TestHealthProbeCycle: CheckHealth takes a 503-answering (draining)
// backend out of rotation and restores it when it recovers.
func TestHealthProbeCycle(t *testing.T) {
	a := newEchoBackend(t, "a")
	b := newEchoBackend(t, "b")
	g := testGate(t, []string{a.srv.URL, b.srv.URL}, nil)

	b.healthy.Store(false)
	g.CheckHealth(context.Background())
	if g.Ring().Alive(1) {
		t.Fatal("draining backend still routable after probe")
	}
	if g.Ring().HealthyCount() != 1 {
		t.Fatalf("healthy = %d, want 1", g.Ring().HealthyCount())
	}

	front := httptest.NewServer(g.Handler())
	defer front.Close()
	for i := 0; i < 8; i++ {
		resp, out := postJSON(t, front.URL+"/v1/run", fmt.Sprintf(`{"source":"(g %d)"}`, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, out)
		}
		if !strings.Contains(out, `"backend":"a"`) {
			t.Fatalf("request routed past the probe result: %s", out)
		}
	}

	b.healthy.Store(true)
	g.CheckHealth(context.Background())
	if !g.Ring().Alive(1) {
		t.Fatal("recovered backend not restored")
	}
	if g.Ring().Rebalances() != 2 {
		t.Errorf("rebalances = %d, want 2", g.Ring().Rebalances())
	}
}

// TestTenantHeaderForwarded: quota headers survive the proxy hop.
func TestTenantHeaderForwarded(t *testing.T) {
	a := newEchoBackend(t, "a")
	g := testGate(t, []string{a.srv.URL}, nil)
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/compile", strings.NewReader(`{"source":"(t)"}`))
	req.Header.Set("X-Lsr-Tenant", "team-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(out), `"tenant":"team-42"`) {
		t.Fatalf("tenant header lost: %s", out)
	}
}

// TestBodyTooLarge: the gate bounds what it buffers for retry.
func TestBodyTooLarge(t *testing.T) {
	a := newEchoBackend(t, "a")
	g := testGate(t, []string{a.srv.URL}, func(c *Config) { c.MaxBodyBytes = 64 })
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	resp, _ := postJSON(t, front.URL+"/v1/compile", `{"source":"`+strings.Repeat("x", 200)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}
