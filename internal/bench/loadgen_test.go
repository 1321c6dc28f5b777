package bench

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunLoadAgainstFake: the generator sustains traffic over the whole
// mix and computes sane percentiles.
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

	rep, err := RunLoad(LoadOptions{URL: srv.URL, Clients: 2, Duration: 200 * time.Millisecond})
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

// TestCompareLoadSeededRegression is the negative proof for the load
// gate: a run whose p99, throughput or error rate violates DefaultSLO,
// the objective lsrbench -loadurl applies, must fail CheckSLO.
func TestCompareLoadSeededRegression(t *testing.T) {
	good := LoadReport{
		Clients: 8, DurationSec: 10,
		Requests: 1000, Errors: 0,
		ThroughputRPS: 100, P50Ms: 5, P95Ms: 20, P99Ms: 50,
	}
	if err := CheckSLO(&good, DefaultSLO); err != nil {
		t.Fatalf("healthy run failed the gate: %v", err)
	}

	slowP99 := good
	slowP99.P99Ms = 5000
	if err := CheckSLO(&slowP99, DefaultSLO); err == nil {
		t.Error("p99 regression passed the gate")
	} else if !strings.Contains(err.Error(), "p99") {
		t.Errorf("p99 regression error does not name the metric: %v", err)
	}

	slowTput := good
	slowTput.ThroughputRPS = 1
	if err := CheckSLO(&slowTput, DefaultSLO); err == nil {
		t.Error("throughput regression passed the gate")
	}

	errors := good
	errors.Errors = 100
	if err := CheckSLO(&errors, DefaultSLO); err == nil {
		t.Error("error-rate regression passed the gate")
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
