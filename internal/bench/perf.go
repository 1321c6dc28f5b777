package bench

import (
	"encoding/json"
	"fmt"
)

// PerfSchema identifies the BENCH_*.json format. Bump the version when
// a field changes meaning; ReadPerfReport refuses any other version.
const PerfSchema = "lsr/bench-perf/v1"

// PerfEntry is the measurement for one benchmark program on one engine.
type PerfEntry struct {
	// Program is the benchmark name (bench.ByName).
	Program string `json:"program"`
	// Engine is the execution engine measured ("threaded").
	Engine string `json:"engine"`
	// WallNsPerOp is wall-clock nanoseconds per complete run of the
	// program (compile excluded), from testing.Benchmark on the host
	// that recorded the file. It is informational: wall time is only
	// compared between paired runs on one host (scripts/perfpair.sh).
	WallNsPerOp int64 `json:"wall_ns_per_op"`
	// SimCycles is the simulated cycle count of one run under the paper
	// configuration. It is deterministic: any drift is a semantic
	// change, never noise, so TestQuickSuiteBaseline requires exact
	// equality.
	SimCycles int64 `json:"sim_cycles"`
	// AllocsPerOp is heap allocations per run on a fresh machine.
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// PerfReport is the schema-versioned payload of BENCH_*.json.
type PerfReport struct {
	Schema string `json:"schema"`
	// Suite names the program subset measured ("quick" or "full").
	Suite string `json:"suite"`
	// GoVersion records the toolchain that produced the numbers.
	GoVersion string      `json:"go_version"`
	Entries   []PerfEntry `json:"entries"`
}

// ReadPerfReport parses a BENCH_*.json payload and checks its schema.
func ReadPerfReport(data []byte) (*PerfReport, error) {
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parse baseline: %w", err)
	}
	if r.Schema != PerfSchema {
		return nil, fmt.Errorf("perf: baseline schema %q, want %q", r.Schema, PerfSchema)
	}
	return &r, nil
}
