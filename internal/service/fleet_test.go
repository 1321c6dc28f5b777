package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// postHeader is post with an extra header (tenant tests).
func postHeader(t *testing.T, url, path, body, hname, hval string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if hname != "" {
		req.Header.Set(hname, hval)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make([]byte, 0, 512)
	buf := make([]byte, 512)
	for {
		n, rerr := resp.Body.Read(buf)
		out = append(out, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return resp, out
}

// TestStoreSharedAcrossReplicas is the PR's acceptance test: a
// cold-started second replica sharing the store directory serves a
// compilation cached by the first without recompiling, observed both
// in the response's cached flag and in the replica's metrics (a store
// hit and zero compiles).
func TestStoreSharedAcrossReplicas(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{StoreDir: dir})

	code, body := post(t, ts1, "/v1/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("replica 1 compile: status %d: %s", code, body)
	}
	var first CompileResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("replica 1's first compile claims cached")
	}

	// Cold start: fresh service, empty in-memory LRU, same store dir.
	_, ts2 := newTestServer(t, Config{StoreDir: dir})
	code, body = post(t, ts2, "/v1/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("replica 2 compile: status %d: %s", code, body)
	}
	var second CompileResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("replica 2 recompiled a store-resident compilation")
	}
	if second.Key != first.Key {
		t.Fatalf("replicas disagree on the content address: %s vs %s", second.Key, first.Key)
	}
	if second.Stats != first.Stats {
		t.Fatalf("replicas disagree on stats: %+v vs %+v", second.Stats, first.Stats)
	}

	_, metrics := get(t, ts2, "/metrics")
	m := string(metrics)
	if !strings.Contains(m, "lsrd_store_hits_total 1") {
		t.Error("replica 2 metrics missing lsrd_store_hits_total 1")
	}
	if !strings.Contains(m, "# TYPE lsrd_compiles_total counter") || strings.Contains(m, "lsrd_compiles_total{") {
		t.Errorf("replica 2 compiled despite the store hit:\n%s", m)
	}

	// The run path shares the same two-tier lookup.
	code, body = post(t, ts2, "/v1/run", RunRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("replica 2 run: status %d: %s", code, body)
	}
	var run RunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if run.Value != "42" {
		t.Fatalf("replica 2 ran the store-decoded program to %q, want 42", run.Value)
	}
}

// TestBatchByteIdentity: each batch item's body must be byte-identical
// (modulo the response writer's indentation) to the standalone
// /v1/compile response for the same unit — success and error items
// alike share one decoder contract.
func TestBatchByteIdentity(t *testing.T) {
	items := []CompileRequest{
		{Source: addOneSrc},
		{Source: `(define (g x) (* x x)) (g 7)`, Dump: true},
		{Source: `(+ 1`}, // parse error
		{Source: addOneSrc, Options: &OptionsRequest{Saves: "?"}}, // bad options
	}

	// Standalone responses from a fresh service.
	_, ts1 := newTestServer(t, Config{})
	var singles [][]byte
	var codes []int
	for _, it := range items {
		code, body := post(t, ts1, "/v1/compile", it)
		singles = append(singles, body)
		codes = append(codes, code)
	}

	// The batch from another fresh service, so cache state matches.
	_, ts2 := newTestServer(t, Config{})
	code, body := post(t, ts2, "/v1/batch", BatchRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(items) {
		t.Fatalf("batch returned %d items, want %d", len(batch.Items), len(items))
	}
	for i, item := range batch.Items {
		if item.Status != codes[i] {
			t.Errorf("item %d: status %d, standalone %d", i, item.Status, codes[i])
		}
		var indented strings.Builder
		if err := jsonIndent(&indented, item.Body); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got, want := indented.String(), string(singles[i]); got != want {
			t.Errorf("item %d body differs from standalone response:\n batch: %s\nsingle: %s", i, got, want)
		}
	}

	// Golden: the batch response is fully deterministic (content-hash
	// keys, fixed stats), so its bytes are pinned.
	golden := filepath.Join("testdata", "batch_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if string(want) != string(body) {
		t.Errorf("batch response drifted from golden:\n got: %s\nwant: %s", body, want)
	}
}

// jsonIndent re-indents a compact body exactly as writeJSON renders
// (two-space indent, trailing newline).
func jsonIndent(b *strings.Builder, raw json.RawMessage) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return err
	}
	b.Write(buf.Bytes())
	b.WriteByte('\n')
	return nil
}

// TestBatchLimits: empty and oversized batches are bad requests.
func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 2})
	code, body := post(t, ts, "/v1/batch", BatchRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", code, body)
	}
	code, body = post(t, ts, "/v1/batch", BatchRequest{Items: []CompileRequest{
		{Source: "(+ 1 1)"}, {Source: "(+ 2 2)"}, {Source: "(+ 3 3)"},
	}})
	if code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "limit 2") {
		t.Errorf("oversized batch error does not state the limit: %s", body)
	}
}

// TestTenantQuota: a tenant at its admission limit sheds with 429,
// the quota kind, a Retry-After header, and a per-tenant metric;
// other tenants are unaffected.
func TestTenantQuota(t *testing.T) {
	svc, ts := newTestServer(t, Config{TenantInflight: 1})

	// Hold tenant A's only slot, as an in-flight request would.
	if !svc.tenants.acquire("team-a", 1) {
		t.Fatal("first acquire failed")
	}
	resp, body := postHeader(t, ts.URL, "/v1/compile", `{"source":"(+ 1 2)"}`, "X-Lsr-Tenant", "team-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	if !strings.Contains(string(body), string(KindQuota)) {
		t.Errorf("shed body missing quota kind: %s", body)
	}

	// A different tenant still gets through, as does anonymous traffic.
	resp, body = postHeader(t, ts.URL, "/v1/compile", `{"source":"(+ 1 2)"}`, "X-Lsr-Tenant", "team-b")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postHeader(t, ts.URL, "/v1/compile", `{"source":"(+ 1 2)"}`, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous: status %d: %s", resp.StatusCode, body)
	}

	// Releasing the slot readmits tenant A.
	svc.tenants.release("team-a")
	resp, body = postHeader(t, ts.URL, "/v1/compile", `{"source":"(+ 1 2)"}`, "X-Lsr-Tenant", "team-a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("released tenant: status %d: %s", resp.StatusCode, body)
	}

	_, metrics := get(t, ts, "/metrics")
	m := string(metrics)
	if !strings.Contains(m, `lsrd_tenant_quota_rejected_total{tenant="team-a"} 1`) {
		t.Error("metrics missing the quota rejection")
	}
	if !strings.Contains(m, `lsrd_tenant_requests_total{tenant="team-b"} 1`) {
		t.Error("metrics missing per-tenant request count")
	}
}

// TestTenantFuelClamp: a tenant fuel ceiling caps what /v1/run grants,
// while anonymous requests keep the server-wide bound.
func TestTenantFuelClamp(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantMaxFuel: 5000})

	resp, body := postHeader(t, ts.URL, "/v1/run",
		`{"source":"(+ 1 2)","max_steps":100000}`, "X-Lsr-Tenant", "team-a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant run: status %d: %s", resp.StatusCode, body)
	}
	var run RunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if run.Fuel != 5000 {
		t.Errorf("tenant fuel = %d, want clamp 5000", run.Fuel)
	}

	resp, body = postHeader(t, ts.URL, "/v1/run",
		`{"source":"(+ 1 2)","max_steps":100000}`, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous run: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if run.Fuel != 100000 {
		t.Errorf("anonymous fuel = %d, want 100000", run.Fuel)
	}
}

// TestDrain: StartDrain stops admission (503 + Retry-After, taxonomy
// kind "draining"), flips /healthz so the gate routes away, raises the
// lsrd_draining gauge, and DrainWait completes.
func TestDrain(t *testing.T) {
	svc, ts := newTestServer(t, Config{StoreDir: t.TempDir()})

	code, body := post(t, ts, "/v1/compile", CompileRequest{Source: addOneSrc})
	if code != http.StatusOK {
		t.Fatalf("pre-drain compile: status %d: %s", code, body)
	}

	svc.StartDrain()
	if !svc.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}

	resp, body := postHeader(t, ts.URL, "/v1/compile", `{"source":"(+ 1 2)"}`, "", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining compile: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("draining Retry-After = %q, want 5", got)
	}
	if !strings.Contains(string(body), string(KindDraining)) {
		t.Errorf("draining body missing kind: %s", body)
	}

	code, body = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d", code)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("draining healthz body: %s", body)
	}

	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), "lsrd_draining 1") {
		t.Error("metrics missing lsrd_draining 1")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.DrainWait(ctx); err != nil {
		t.Fatalf("DrainWait: %v", err)
	}
}

// TestRetryAfterTaxonomy pins the backoff contract documented in the
// README's taxonomy table.
func TestRetryAfterTaxonomy(t *testing.T) {
	cases := []struct {
		kind Kind
		want int
	}{
		{KindOverload, 1}, {KindQuota, 1}, {KindDraining, 5},
		{KindBadRequest, 0}, {KindCompile, 0}, {KindFuel, 0},
	}
	for _, c := range cases {
		if got := c.kind.RetryAfterSeconds(); got != c.want {
			t.Errorf("RetryAfterSeconds(%s) = %d, want %d", c.kind, got, c.want)
		}
	}
	if KindQuota.HTTPStatus() != http.StatusTooManyRequests {
		t.Error("quota kind is not 429")
	}
	if KindDraining.HTTPStatus() != http.StatusServiceUnavailable {
		t.Error("draining kind is not 503")
	}
}
