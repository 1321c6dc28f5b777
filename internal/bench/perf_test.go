package bench

import (
	"io"
	"os"
	"testing"

	"repro/internal/compiler"
	"repro/internal/vm"
)

func TestPerfSchemaRejected(t *testing.T) {
	if _, err := ReadPerfReport([]byte(`{"schema":"lsr/bench-perf/v0"}`)); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

// allocSlack is the share by which a program's allocations per run may
// exceed BENCH_2.json's allocs_per_op. Counts move a little with the Go
// version and the garbage collector's timing; a boxed value or a heap
// closure in a hot loop moves them by orders of magnitude.
const allocSlack = 0.10

// TestQuickSuiteBaseline holds every program BENCH_2.json names to its
// host-free numbers: the simulated cycles of one run under the paper
// configuration exactly, and heap allocations per run on a fresh
// machine within allocSlack of allocs_per_op. The file's wall times
// are not compared; wall time is only compared between paired runs on
// one host (scripts/perfpair.sh).
func TestQuickSuiteBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("the race detector, which CI runs with -short, changes allocation counts")
	}
	data, err := os.ReadFile("../../BENCH_2.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadPerfReport(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range base.Entries {
		p, err := ByName(e.Program)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.Compile(p.Source, PaperOptions())
		if err != nil {
			t.Fatalf("%s: %v", e.Program, err)
		}
		var runErr error
		run := func() *vm.Machine {
			m := vm.New(c.Program, io.Discard)
			m.Counting = vm.CountEssential
			m.MaxSteps = BenchFuel
			if _, err := m.Run(); err != nil {
				runErr = err
			}
			return m
		}
		cycles := run().Counters.Cycles
		allocs := testing.AllocsPerRun(3, func() { run() })
		if runErr != nil {
			t.Fatalf("%s: %v", e.Program, runErr)
		}
		t.Logf("%-10s sim_cycles %9d (file %9d)  allocs/run %6.0f (file %6d)",
			e.Program, cycles, e.SimCycles, allocs, e.AllocsPerOp)
		if cycles != e.SimCycles {
			t.Errorf("%s: %d simulated cycles, BENCH_2.json has %d: the compiler or the cost model changed",
				e.Program, cycles, e.SimCycles)
		}
		if allocs > float64(e.AllocsPerOp)*(1+allocSlack) {
			t.Errorf("%s: %.0f allocations per run, BENCH_2.json has %d (limit +%.0f%%)",
				e.Program, allocs, e.AllocsPerOp, allocSlack*100)
		}
	}
}
