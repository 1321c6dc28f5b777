// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation, plus micro-benchmarks of
// the allocator's hot components. Custom metrics expose the paper's own
// units (stack references, simulated cycles) alongside Go's ns/op:
//
//	go test -bench=. -benchmem                 # everything, quick suite
//	go test -bench=BenchmarkTable3 -suite=full # one table, full suite
package repro

import (
	"flag"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/regset"
)

var suiteFlag = flag.String("suite", "quick", "benchmark suite for the table benchmarks: quick or full")

// suite returns the benchmark set for table regeneration.
func suite(b *testing.B) []*bench.Program {
	b.Helper()
	if *suiteFlag == "full" {
		return bench.All()
	}
	var out []*bench.Program
	for _, n := range []string{"minieval", "typecheck", "tak", "deriv", "browse"} {
		p, err := bench.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// BenchmarkTable2 regenerates the dynamic call-graph summary and reports
// the effective-leaf fraction (paper: over two thirds).
func BenchmarkTable2(b *testing.B) {
	progs := suite(b)
	var eff float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Table2(progs)
		if err != nil {
			b.Fatal(err)
		}
		eff = 0
		for _, r := range rows {
			eff += r.EffectiveLeaf()
		}
		eff /= float64(len(rows))
	}
	b.ReportMetric(eff*100, "effleaf%")
}

// BenchmarkTable3 regenerates the stack-reference table and reports the
// average lazy-save reduction (paper: 72%) and speedup (paper: 43%).
func BenchmarkTable3(b *testing.B) {
	progs := suite(b)
	var red, perf float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Table3(progs)
		if err != nil {
			b.Fatal(err)
		}
		red, perf = 0, 0
		for _, r := range rows {
			lr, _, _ := r.Reductions()
			lp, _, _ := r.Speedups()
			red += lr
			perf += lp
		}
		red /= float64(len(rows))
		perf /= float64(len(rows))
	}
	b.ReportMetric(red*100, "lazyrefs%")
	b.ReportMetric(perf*100, "lazyperf%")
}

// BenchmarkTable4 regenerates the C-vs-Chez tak comparison and reports
// the lazy caller-save speedup over callee-save early (paper: 14% over cc).
func BenchmarkTable4(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Table4()
		if err != nil {
			b.Fatal(err)
		}
		c := rows[0].Cycles
		chez := rows[len(rows)-1].Cycles
		gain = float64(c)/float64(chez) - 1
	}
	b.ReportMetric(gain*100, "speedup%")
}

// BenchmarkTable5 regenerates the callee-save study and reports lazy
// callee-save's speedup over early (paper: 60-91%).
func BenchmarkTable5(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Table5()
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(rows[0].Cycles)/float64(rows[1].Cycles) - 1
	}
	b.ReportMetric(gain*100, "speedup%")
}

// BenchmarkFigure1 verifies the derived Figure 1 equations over random
// expressions.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure1(500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the eager-vs-lazy restore shapes.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShuffleStats regenerates the §3.1 statistics and reports
// the cyclic-call-site fraction (paper: 7%).
func BenchmarkShuffleStats(b *testing.B) {
	progs := suite(b)
	var cyclic float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.ShuffleStats(progs)
		if err != nil {
			b.Fatal(err)
		}
		sites, cyc := 0, 0
		for _, r := range rows {
			sites += r.CallSites
			cyc += r.CyclicSites
		}
		cyclic = float64(cyc) / float64(sites)
	}
	b.ReportMetric(cyclic*100, "cyclic%")
}

// BenchmarkRegisterSweep regenerates the §4 register-count sweep on tak
// and reports the 0→6-register speedup.
func BenchmarkRegisterSweep(b *testing.B) {
	p, err := bench.ByName("tak")
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.RegisterSweep(p)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(rows[0].GreedyCycles)/float64(rows[6].GreedyCycles) - 1
	}
	b.ReportMetric(gain*100, "speedup%")
}

// BenchmarkRestorePolicy regenerates the §2.2 eager-vs-lazy restore
// comparison and reports the average lazy/eager cycle ratio (paper: ≈1).
func BenchmarkRestorePolicy(b *testing.B) {
	progs := suite(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.RestoreStudy(progs)
		if err != nil {
			b.Fatal(err)
		}
		ratio = 0
		for _, r := range rows {
			ratio += float64(r.LazyCycles) / float64(r.EagerCycles)
		}
		ratio /= float64(len(rows))
	}
	b.ReportMetric(ratio, "lazy/eager")
}

// BenchmarkBranchPrediction regenerates the §6 static-branch-prediction
// study and reports the average gain (paper: 2-3%).
func BenchmarkBranchPrediction(b *testing.B) {
	progs := suite(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.BranchStudy(progs, 3)
		if err != nil {
			b.Fatal(err)
		}
		gain = 0
		for _, r := range rows {
			gain += float64(r.Unpredicted)/float64(r.Predicted) - 1
		}
		gain /= float64(len(rows))
	}
	b.ReportMetric(gain*100, "gain%")
}

// --- micro-benchmarks of the allocator's components -------------------

// BenchmarkCompileTak measures end-to-end compilation (reader through
// code generation) of the tak benchmark plus the runtime prelude.
func BenchmarkCompileTak(b *testing.B) {
	p, err := bench.ByName("tak")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(p.Source, compiler.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckedCompileTak is BenchmarkCompileTak with the
// translation validator and the optimality lint on (lsrc -verify
// -lint); the difference between the two is the checks' cost.
func BenchmarkCheckedCompileTak(b *testing.B) {
	p, err := bench.ByName("tak")
	if err != nil {
		b.Fatal(err)
	}
	opts := compiler.DefaultOptions()
	opts.Verify, opts.Lint = true, true
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(p.Source, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMTak measures simulator throughput on compiled tak.
func BenchmarkVMTak(b *testing.B) {
	p, err := bench.ByName("tak")
	if err != nil {
		b.Fatal(err)
	}
	var instr int64
	for i := 0; i < b.N; i++ {
		m, err := bench.Measure(p, bench.PaperOptions())
		if err != nil {
			b.Fatal(err)
		}
		instr = m.Counters.Instructions
	}
	b.ReportMetric(float64(instr), "instructions")
}

// BenchmarkGreedyShuffle measures the greedy shuffler on random
// dependency graphs.
func BenchmarkGreedyShuffle(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	graphs := make([][]core.ShuffleArg, 256)
	for i := range graphs {
		m := 2 + rng.Intn(5)
		args := make([]core.ShuffleArg, m)
		for j := range args {
			args[j].Target = j
			for k := 0; k < rng.Intn(3); k++ {
				args[j].Reads = args[j].Reads.Add(rng.Intn(m))
			}
		}
		graphs[i] = args
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyShuffle(graphs[i%len(graphs)], regset.Empty)
	}
}

// BenchmarkSaveAnalysis measures the revised S_t/S_f computation on the
// simplified language.
func BenchmarkSaveAnalysis(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	var build func(depth int) core.Expr
	build = func(depth int) core.Expr {
		if depth == 0 {
			return core.Call{LiveAfter: regset.Set(rng.Uint64()) & 0xff}
		}
		return core.If{
			Test: core.Var{Reg: rng.Intn(8)},
			Then: core.Seq{E1: build(depth - 1), E2: core.Var{Reg: rng.Intn(8)}},
			Else: build(depth - 1),
		}
	}
	e := build(12)
	r := regset.Universe(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Revised(e, r)
	}
}

// BenchmarkAllocatorOnly isolates pass 1 + pass 2 (analysis and
// emission) from the front end, the quantity behind the paper's "7% of
// compile time" figure.
func BenchmarkAllocatorOnly(b *testing.B) {
	p, err := bench.ByName("boyer")
	if err != nil {
		b.Fatal(err)
	}
	c, err := compiler.Compile(p.Source, compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Recompiling the already-built IR is not possible (annotations
		// are in-place), so measure the full back end via a fresh
		// front-end per iteration, subtracting nothing; the compile-time
		// study (lsrbench -compiletime) reports the split.
		if _, err := compiler.Compile(p.Source, compiler.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	_ = c
}

// BenchmarkStrategies runs fib under each save strategy for a direct
// simulated-cycle comparison.
func BenchmarkStrategies(b *testing.B) {
	fib := &bench.Program{
		Name: "fib-17",
		Source: `
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(fib 17)`,
		Expect: "1597",
	}
	for _, s := range []codegen.SaveStrategy{codegen.SaveLazy, codegen.SaveEarly, codegen.SaveLate} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				m, err := bench.Measure(fib, bench.StrategyOptions(s))
				if err != nil {
					b.Fatal(err)
				}
				cycles = m.Counters.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}
