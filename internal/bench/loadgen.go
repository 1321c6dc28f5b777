package bench

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// SLO is the service-level objective a load run is gated against.
type SLO struct {
	// P99MsMax bounds the 99th-percentile request latency.
	P99MsMax float64
	// ThroughputMin bounds sustained successful requests per second
	// from below.
	ThroughputMin float64
	// ErrorRateMax bounds the non-2xx fraction of all requests.
	ErrorRateMax float64
}

// LoadReport is one sustained-load run against a gate or replica.
type LoadReport struct {
	// Clients is the concurrent client count.
	Clients int
	// DurationSec is the measured wall time of the run.
	DurationSec float64
	// Requests counts every request issued; Errors the non-2xx or
	// transport-failed subset.
	Requests int64
	Errors   int64
	// ThroughputRPS is successful requests per second of wall time.
	ThroughputRPS float64
	// P50Ms/P95Ms/P99Ms are latency percentiles over successful
	// requests, in milliseconds.
	P50Ms float64
	P95Ms float64
	P99Ms float64
}

// LoadOptions configures a load run.
type LoadOptions struct {
	// URL is the gate (or replica) base URL.
	URL string
	// Clients is the concurrent client count (0 = 4).
	Clients int
	// Duration is how long to sustain load (0 = 5s).
	Duration time.Duration
}

// DefaultSLO is deliberately loose: CI machines are slow, shared and
// jittery, so the gate exists to catch order-of-magnitude regressions
// (a lost cache tier, an accidental serialization point), not
// few-percent drift — that takes paired runs on one host (perfbench).
var DefaultSLO = SLO{P99MsMax: 2000, ThroughputMin: 5, ErrorRateMax: 0.01}

// loadCorpus is the request mix: repeated sources (cache-hit path,
// the common fleet case), a compute-bound run, and a batch. Every body
// is valid, so any error under load is a serving failure, not a 4xx
// artifact of the corpus.
var loadCorpus = []struct{ path, body string }{
	{"/v1/compile", `{"source":"(define (add1 x) (+ x 1)) (add1 41)"}`},
	{"/v1/run", `{"source":"(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 12)"}`},
	{"/v1/compile", `{"source":"(define (len l) (if (null? l) 0 (+ 1 (len (cdr l))))) (len '(1 2 3))"}`},
	{"/v1/batch", `{"items":[{"source":"(+ 1 2)"},{"source":"(* 3 4)"},{"source":"(- 9 5)"}]}`},
	{"/v1/run", `{"source":"(define (sum n acc) (if (= n 0) acc (sum (- n 1) (+ acc n)))) (sum 1000 0)"}`},
}

// RunLoad drives the corpus at the target with Clients concurrent
// clients for Duration and returns the percentile/throughput report.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var (
		mu    sync.Mutex
		lats  []float64
		reqs  int64
		errs  int64
		wg    sync.WaitGroup
		start = time.Now()
	)
	deadline := start.Add(opts.Duration)
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(next int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w := loadCorpus[next%len(loadCorpus)]
				next++
				t0 := time.Now()
				resp, err := client.Post(opts.URL+w.path, "application/json", strings.NewReader(w.body))
				elapsed := time.Since(t0)
				ok := false
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					ok = resp.StatusCode/100 == 2
				}
				mu.Lock()
				reqs++
				if ok {
					lats = append(lats, float64(elapsed.Nanoseconds())/1e6)
				} else {
					errs++
				}
				mu.Unlock()
			}
		}(c) // offset each client's start so the mix interleaves
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if len(lats) == 0 {
		return nil, fmt.Errorf("load: no request succeeded against %s (%d issued, %d errors)", opts.URL, reqs, errs)
	}
	sort.Float64s(lats)
	return &LoadReport{
		Clients:       opts.Clients,
		DurationSec:   round2(wall),
		Requests:      reqs,
		Errors:        errs,
		ThroughputRPS: round2(float64(len(lats)) / wall),
		P50Ms:         round2(percentile(lats, 0.50)),
		P95Ms:         round2(percentile(lats, 0.95)),
		P99Ms:         round2(percentile(lats, 0.99)),
	}, nil
}

// percentile is the nearest-rank quantile of a sorted sample.
func percentile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// CheckSLO gates a report against an objective.
func CheckSLO(r *LoadReport, slo SLO) error {
	var problems []string
	if slo.P99MsMax > 0 && r.P99Ms > slo.P99MsMax {
		problems = append(problems, fmt.Sprintf("p99 %.2fms exceeds SLO %.2fms", r.P99Ms, slo.P99MsMax))
	}
	if slo.ThroughputMin > 0 && r.ThroughputRPS < slo.ThroughputMin {
		problems = append(problems, fmt.Sprintf("throughput %.2f rps below SLO %.2f rps", r.ThroughputRPS, slo.ThroughputMin))
	}
	if slo.ErrorRateMax >= 0 && r.Requests > 0 {
		rate := float64(r.Errors) / float64(r.Requests)
		if rate > slo.ErrorRateMax {
			problems = append(problems, fmt.Sprintf("error rate %.4f exceeds SLO %.4f (%d/%d)", rate, slo.ErrorRateMax, r.Errors, r.Requests))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("load SLO gate failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
