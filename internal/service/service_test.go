package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/findings"
	"repro/internal/vm"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := NewWithError(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

const addOneSrc = `(define (f x) (+ x 1)) (f 41)`

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if strings.TrimSpace(string(body)) != `{"status":"ok"}` {
		t.Errorf("healthz body: %s", body)
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/compile", CompileRequest{Source: addOneSrc, Verify: true})
	if code != http.StatusOK {
		t.Fatalf("compile: status %d: %s", code, body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Key) != 64 {
		t.Errorf("key = %q, want 64 hex chars", resp.Key)
	}
	if resp.Cached {
		t.Error("first compile reported cached")
	}
	// The stats must match a direct compilation byte for byte.
	opts := compiler.DefaultOptions()
	opts.Verify = true
	want, err := compiler.Compile(addOneSrc, opts)
	if err != nil {
		t.Fatalf("direct compile: %v", err)
	}
	if resp.Stats != want.Stats {
		t.Errorf("stats diverge from direct compile:\n got %+v\nwant %+v", resp.Stats, want.Stats)
	}

	// The identical request is a cache hit with the same key.
	code, body = post(t, ts, "/v1/compile", CompileRequest{Source: addOneSrc, Verify: true})
	if code != http.StatusOK {
		t.Fatalf("second compile: status %d", code)
	}
	var resp2 CompileResponse
	if err := json.Unmarshal(body, &resp2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp2.Cached || resp2.Key != resp.Key {
		t.Errorf("second compile: cached=%t key=%s, want cached hit of %s", resp2.Cached, resp2.Key, resp.Key)
	}

	// Different options → different content address.
	lateOpts := &OptionsRequest{Saves: "late"}
	code, body = post(t, ts, "/v1/compile", CompileRequest{Source: addOneSrc, Options: lateOpts})
	if code != http.StatusOK {
		t.Fatalf("late compile: status %d", code)
	}
	var resp3 CompileResponse
	if err := json.Unmarshal(body, &resp3); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp3.Key == resp.Key {
		t.Error("different options produced the same cache key")
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `(display "hi") (+ 1 41)`
	code, body := post(t, ts, "/v1/run", RunRequest{Source: src})
	if code != http.StatusOK {
		t.Fatalf("run: status %d: %s", code, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Value != "42" {
		t.Errorf("value = %q, want 42", resp.Value)
	}
	if resp.Output != "hi" {
		t.Errorf("output = %q, want hi", resp.Output)
	}
	if resp.Counters.Instructions == 0 || resp.Counters.Activations == 0 {
		t.Errorf("counters not populated: %+v", resp.Counters)
	}
	if resp.Cached {
		t.Error("first run reported cached")
	}

	// Re-running hits the compilation cache but still executes.
	code, body = post(t, ts, "/v1/run", RunRequest{Source: src})
	if code != http.StatusOK {
		t.Fatalf("second run: status %d", code)
	}
	var resp2 RunResponse
	if err := json.Unmarshal(body, &resp2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp2.Cached {
		t.Error("second run was not a cache hit")
	}
	if resp2.Value != "42" || resp2.Counters.Instructions != resp.Counters.Instructions {
		t.Errorf("cached program ran differently: %+v vs %+v", resp2, resp)
	}
}

// TestVerifyEndpointGolden pins the exact response body: the same
// findings.Report JSON that `lsrc -verify -json` prints.
func TestVerifyEndpointGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/verify", CheckRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("verify: status %d: %s", code, body)
	}
	var want bytes.Buffer
	if err := findings.WriteJSON(&want, findings.Report{Tool: "verify", Findings: []findings.Finding{}}); err != nil {
		t.Fatal(err)
	}
	if string(body) != want.String() {
		t.Errorf("verify body diverges from lsrc -json format:\n got: %s\nwant: %s", body, want.String())
	}
}

// TestLintEndpointGolden: the /v1/lint body must be byte-for-byte what
// lsrc -lint -json prints for the same source and options.
func TestLintEndpointGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/lint", CheckRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("lint: status %d: %s", code, body)
	}
	opts := compiler.DefaultOptions()
	opts.Lint = true
	c, err := compiler.Compile(addOneSrc, opts)
	if err != nil {
		t.Fatalf("direct compile: %v", err)
	}
	var want bytes.Buffer
	rep := findings.Report{Tool: "lint", Findings: c.Lint.Structured(), Summary: c.Lint.Totals}
	if err := findings.WriteJSON(&want, rep); err != nil {
		t.Fatal(err)
	}
	if string(body) != want.String() {
		t.Errorf("lint body diverges from lsrc -json format:\n got: %s\nwant: %s", body, want.String())
	}
	var decoded struct {
		Tool    string           `json:"tool"`
		Summary analysis.Summary `json:"summary"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.Tool != "lint" || decoded.Summary.Saves == 0 {
		t.Errorf("lint summary looks empty: %s", body)
	}
}

// TestRunFuelExhausted: the ISSUE's acceptance program — an infinite
// tail loop — must terminate with the fuel-exhausted taxonomy kind
// instead of hanging a worker.
func TestRunFuelExhausted(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/run", RunRequest{
		Source:   `(define (f) (f)) (f)`,
		MaxSteps: 10_000,
	})
	if code != KindFuel.HTTPStatus() {
		t.Fatalf("status = %d, want %d: %s", code, KindFuel.HTTPStatus(), body)
	}
	var resp ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Error.Kind != string(KindFuel) {
		t.Errorf("kind = %q, want %q", resp.Error.Kind, KindFuel)
	}
	if svc.fuelExhausted.Value() != 1 {
		t.Errorf("fuel metric = %d, want 1", svc.fuelExhausted.Value())
	}
}

// TestRunDefaultFuel: a looping program with no requested budget is
// still bounded by the server's default fuel.
func TestRunDefaultFuel(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultFuel: 5_000})
	code, body := post(t, ts, "/v1/run", RunRequest{Source: `(define (f) (f)) (f)`})
	if code != KindFuel.HTTPStatus() {
		t.Fatalf("status = %d, want fuel exhaustion: %s", code, body)
	}
}

// TestRunFuelClamped: a request cannot exceed the server's MaxFuel.
func TestRunFuelClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxFuel: 5_000})
	code, body := post(t, ts, "/v1/run", RunRequest{
		Source:   `(define (f) (f)) (f)`,
		MaxSteps: 1_000_000_000,
	})
	if code != KindFuel.HTTPStatus() {
		t.Fatalf("status = %d, want fuel exhaustion within the clamp: %s", code, body)
	}
	var resp ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error.Message, "5000") {
		t.Errorf("expected the clamped budget in the message, got %q", resp.Error.Message)
	}
}

func TestErrorTaxonomyOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		path     string
		body     any
		wantCode int
		wantKind Kind
	}{
		{"parse error", "/v1/compile", CompileRequest{Source: "((«"}, 422, KindParse},
		{"runtime error", "/v1/run", RunRequest{Source: "(car 5)"}, 422, KindRuntime},
		{"unbound global", "/v1/run", RunRequest{Source: "(nope 1)"}, 422, KindRuntime},
		{"bad option", "/v1/compile", CompileRequest{Source: "1", Options: &OptionsRequest{Saves: "wat"}}, 400, KindBadRequest},
		{"empty source", "/v1/run", RunRequest{}, 400, KindBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := post(t, ts, c.path, c.body)
			if code != c.wantCode {
				t.Fatalf("status = %d, want %d: %s", code, c.wantCode, body)
			}
			var resp ErrorResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if resp.Error.Kind != string(c.wantKind) {
				t.Errorf("kind = %q, want %q", resp.Error.Kind, c.wantKind)
			}
		})
	}
}

// TestVerifyEndpointViolations: a program compiled under an option set
// the verifier rejects must return the findings report with the
// verify-failed status. (No such option set exists in the healthy
// compiler, so this exercises the envelope via a parse check instead —
// the violation path itself is covered by the verifier's own tests.)
func TestVerifyEndpointBadSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/verify", CheckRequest{Source: "((("})
	if code != KindParse.HTTPStatus() {
		t.Fatalf("status = %d: %s", code, body)
	}
	var resp ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error.Kind != string(KindParse) {
		t.Errorf("kind = %q", resp.Error.Kind)
	}
}

// TestOverloadSheds429: with one worker held and the queue full, the
// next request is shed with 429 and the overloaded kind.
func TestOverloadSheds429(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: 5 * time.Second})

	// Occupy the only worker slot directly.
	svc.sem <- struct{}{}
	svc.admitted.Add(1)
	defer func() {
		<-svc.sem
		svc.admitted.Add(-1)
	}()

	// One request is admitted into the queue (blocks waiting for the
	// worker until we release it below).
	queued := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		data, _ := json.Marshal(RunRequest{Source: "(+ 1 1)"})
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(data))
		if err != nil {
			queued <- struct {
				code int
				body []byte
			}{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		queued <- struct {
			code int
			body []byte
		}{resp.StatusCode, b}
	}()

	// Wait for the queued request to be admitted (admitted == 2).
	deadline := time.Now().Add(2 * time.Second)
	for svc.admitted.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// The pool (1 worker + 1 queued) is full: the next request sheds.
	code, body := post(t, ts, "/v1/compile", CompileRequest{Source: "1"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", code, body)
	}
	var resp ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error.Kind != string(KindOverload) {
		t.Errorf("kind = %q, want %q", resp.Error.Kind, KindOverload)
	}
	if svc.shed.Value() == 0 {
		t.Error("shed counter not incremented")
	}

	// Release the worker: the queued request must complete normally.
	<-svc.sem
	svc.admitted.Add(-1)
	res := <-queued
	if res.code != http.StatusOK {
		t.Errorf("queued request: status %d: %s", res.code, res.body)
	}
	// Rebalance for the deferred cleanup (the slot we released was the
	// one the defer expects to drain — re-occupy it).
	svc.sem <- struct{}{}
	svc.admitted.Add(1)
}

// TestConcurrentMixedTraffic is the acceptance scenario: concurrent
// compile/run/verify/lint requests against one service, raced by
// `go test -race`, with repeated identical compiles landing in the
// cache.
func TestConcurrentMixedTraffic(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 256, RequestTimeout: 30 * time.Second})
	sources := []string{
		addOneSrc,
		`(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)`,
		`(let loop ([i 0] [acc 0]) (if (= i 100) acc (loop (+ i 1) (+ acc i))))`,
	}
	var wg sync.WaitGroup
	errs := make(chan string, 128)
	for i := 0; i < 96; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := sources[i%len(sources)]
			var code int
			var body []byte
			switch i % 4 {
			case 0:
				code, body = post(t, ts, "/v1/compile", CompileRequest{Source: src})
			case 1:
				code, body = post(t, ts, "/v1/run", RunRequest{Source: src})
			case 2:
				code, body = post(t, ts, "/v1/verify", CheckRequest{Source: src})
			case 3:
				code, body = post(t, ts, "/v1/lint", CheckRequest{Source: src})
			}
			if code != http.StatusOK {
				errs <- fmt.Sprintf("request %d: status %d: %s", i, code, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	stats := svc.Cache().Stats()
	if stats.Hits == 0 {
		t.Error("expected cache hits under repeated identical traffic")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/compile", CompileRequest{Source: addOneSrc})
	post(t, ts, "/v1/compile", CompileRequest{Source: addOneSrc})
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`lsrd_requests_total{endpoint="compile",code="200"} 2`,
		"lsrd_cache_hits_total 1",
		"lsrd_cache_misses_total 1",
		`lsrd_compiles_total{saves="lazy"} 1`,
		"lsrd_request_seconds_bucket",
		"# TYPE lsrd_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}

// TestAcquireTimeout: a request that cannot get a worker before its
// deadline reports the timeout kind.
func TestAcquireTimeout(t *testing.T) {
	svc, err := NewWithError(Config{Workers: 1, QueueDepth: 4, RequestTimeout: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.sem <- struct{}{} // occupy the worker
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	aerr := svc.acquire(ctx)
	if aerr == nil || aerr.Kind != KindTimeout {
		t.Fatalf("want timeout, got %v", aerr)
	}
}

// TestClassify covers the taxonomy mapping over real pipeline errors.
func TestClassify(t *testing.T) {
	parseErr := func() error {
		_, err := compiler.Compile("(((", compiler.DefaultOptions())
		return err
	}()
	runtimeErr := func() error {
		_, _, err := compiler.Run("(car 5)", compiler.DefaultOptions(), nil)
		return err
	}()
	fuelErr := &vm.FuelError{Budget: 10, PC: 3}
	cases := []struct {
		stage Stage
		err   error
		want  Kind
	}{
		{StageCompile, parseErr, KindParse},
		{StageRun, runtimeErr, KindRuntime},
		{StageRun, fuelErr, KindFuel},
		{StageRun, fmt.Errorf("wrapped: %w", fuelErr), KindFuel},
		{StageCompile, errors.New("mystery"), KindCompile},
		{StageRun, errors.New("mystery"), KindRuntime},
	}
	for _, c := range cases {
		if got := Classify(c.stage, c.err); got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.stage, c.err, got, c.want)
		}
	}
}

// TestRunEngineAndCounters exercises the counter-mode selector of
// /v1/run: essential mode must keep the cost-model outputs of the full
// default while zeroing the diagnostic ones, and a bad selector is a
// bad-request error. (The engine is not selectable: the reference
// switch loop is the vm tests' oracle, not a serving option.)
func TestRunEngineAndCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `(define (f n acc) (if (zero? n) acc (f (- n 1) (+ acc n)))) (f 100 0)`

	byMode := map[string]RunResponse{}
	for _, mode := range []string{"", "essential"} {
		code, body := post(t, ts, "/v1/run", RunRequest{Source: src, Counters: mode})
		if code != http.StatusOK {
			t.Fatalf("run counters=%q: status %d: %s", mode, code, body)
		}
		var resp RunResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.Value != "5050" {
			t.Errorf("counters=%q value = %q, want 5050", mode, resp.Value)
		}
		byMode[mode] = resp
	}
	full, ess := byMode[""].Counters, byMode["essential"].Counters
	if ess.Instructions != full.Instructions || ess.Cycles != full.Cycles ||
		ess.StallCycles != full.StallCycles ||
		ess.StackReads != full.StackReads || ess.StackWrites != full.StackWrites {
		t.Errorf("essential cost-model counters diverge: %+v vs %+v", ess, full)
	}
	if full.Activations == 0 {
		t.Errorf("full mode left diagnostic counters empty: %+v", full)
	}
	if ess.Activations != 0 || ess.Calls != 0 {
		t.Errorf("essential mode populated diagnostic counters: %+v", ess)
	}

	code, body := post(t, ts, "/v1/run", RunRequest{Source: src, Counters: "most"})
	if code != http.StatusBadRequest {
		t.Errorf("bad counters selector: status %d: %s", code, body)
	}

	// The runs metric counted every successful execution.
	code, body = get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if want := "lsrd_runs_total 2\n"; !strings.Contains(string(body), want) {
		t.Errorf("metrics missing %q", want)
	}
}
