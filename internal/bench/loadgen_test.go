package bench

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunLoadAgainstFake: the generator sustains traffic, computes
// sane percentiles, and the report round-trips through its JSON form.
func TestRunLoadAgainstFake(t *testing.T) {
	// Handlers run on concurrent server goroutines, so the per-path
	// counts are guarded.
	var (
		mu   sync.Mutex
		hits = map[string]int{}
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits[r.URL.Path]++
		mu.Unlock()
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	rep, err := RunLoad(LoadOptions{URL: srv.URL, Clients: 2, Duration: 200 * time.Millisecond, SLO: DefaultSLO})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, path := range []string{"/v1/compile", "/v1/run", "/v1/batch"} {
		if hits[path] == 0 {
			t.Errorf("the load mix sent no request to %s (hits %v)", path, hits)
		}
	}
	mu.Unlock()
	if rep.Schema != LoadSchema {
		t.Errorf("schema %q", rep.Schema)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Errorf("requests=%d errors=%d", rep.Requests, rep.Errors)
	}
	if rep.P50Ms <= 0 || rep.P50Ms > rep.P95Ms || rep.P95Ms > rep.P99Ms {
		t.Errorf("percentile ordering p50=%.3f p95=%.3f p99=%.3f", rep.P50Ms, rep.P95Ms, rep.P99Ms)
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("throughput %.2f", rep.ThroughputRPS)
	}
	if err := CheckSLO(rep, DefaultSLO); err != nil {
		t.Errorf("trivial local run failed the default SLO: %v", err)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLoadReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if *back != *rep {
		t.Errorf("report did not round-trip: %+v vs %+v", back, rep)
	}
}

// TestRunLoadAllErrors: a target that always fails produces an error,
// not a vacuous report.
func TestRunLoadAllErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := RunLoad(LoadOptions{URL: srv.URL, Clients: 1, Duration: 50 * time.Millisecond}); err == nil {
		t.Fatal("all-error run reported success")
	}
}

// TestCompareLoadSeededRegression is the negative proof for the CI
// gate: a candidate whose p99, throughput or error rate violates the
// committed baseline's SLO bounds must fail CompareLoad.
func TestCompareLoadSeededRegression(t *testing.T) {
	base := &LoadReport{
		Schema: LoadSchema, Clients: 8, DurationSec: 10,
		Requests: 1000, Errors: 0,
		ThroughputRPS: 100, P50Ms: 5, P95Ms: 20, P99Ms: 50,
		SLO: SLO{P99MsMax: 2000, ThroughputMin: 5, ErrorRateMax: 0.01},
	}
	good := *base
	if err := CompareLoad(base, &good); err != nil {
		t.Fatalf("healthy candidate failed the gate: %v", err)
	}

	slowP99 := *base
	slowP99.P99Ms = 5000
	if err := CompareLoad(base, &slowP99); err == nil {
		t.Error("p99 regression passed the gate")
	} else if !strings.Contains(err.Error(), "p99") {
		t.Errorf("p99 regression error does not name the metric: %v", err)
	}

	slowTput := *base
	slowTput.ThroughputRPS = 1
	if err := CompareLoad(base, &slowTput); err == nil {
		t.Error("throughput regression passed the gate")
	}

	errors := *base
	errors.Errors = 100
	if err := CompareLoad(base, &errors); err == nil {
		t.Error("error-rate regression passed the gate")
	}

	// The candidate cannot loosen its own gate: bounds come from the
	// baseline even if the candidate report carries laxer ones.
	lax := slowP99
	lax.SLO = SLO{P99MsMax: 1e9}
	if err := CompareLoad(base, &lax); err == nil {
		t.Error("candidate with self-declared lax SLO passed the gate")
	}

	wrongSchema := *base
	wrongSchema.Schema = "lsr/bench-load/v0"
	if err := CompareLoad(base, &wrongSchema); err == nil {
		t.Error("schema mismatch passed the gate")
	}
}

// TestReadLoadReportRejectsWrongSchema mirrors the perf reader's
// contract.
func TestReadLoadReportRejectsWrongSchema(t *testing.T) {
	if _, err := ReadLoadReport([]byte(`{"schema":"nope"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := ReadLoadReport([]byte(`{garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestPercentileNearestRank pins the quantile convention.
func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%.2f) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample percentile = %g", got)
	}
}
