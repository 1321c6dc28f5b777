package bench

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/codegen"
)

// quickSuite is a fast subset used by the table tests.
func quickSuite(t *testing.T) []*Program {
	t.Helper()
	var out []*Program
	for _, n := range []string{"tak", "cpstak", "deriv", "div-iter", "browse"} {
		p, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestTable1(t *testing.T) {
	s := Table1()
	if !strings.Contains(s, "tak") || !strings.Contains(s, "minieval") {
		t.Errorf("table 1 incomplete:\n%s", s)
	}
}

func TestTable2(t *testing.T) {
	rows, text, err := Table2(quickSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The paper's central observation: effective leaves exceed syntactic
	// leaves on average.
	var sl, el float64
	for _, r := range rows {
		sl += r.SynLeaf
		el += r.EffectiveLeaf()
	}
	if el <= sl {
		t.Errorf("effective leaf average (%.2f) should exceed syntactic (%.2f)\n%s", el, sl, text)
	}
}

func TestTable3(t *testing.T) {
	rows, text, err := Table3(quickSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	var lazyRefs, earlyRefs, lateRefs float64
	for _, r := range rows {
		lr, er, tr := r.Reductions()
		lazyRefs += lr
		earlyRefs += er
		lateRefs += tr
		if lr <= 0 {
			t.Errorf("%s: lazy should reduce stack refs vs baseline\n%s", r.Name, text)
		}
	}
	// The paper's ordering: lazy reduces at least as much as early and late.
	if lazyRefs < earlyRefs || lazyRefs < lateRefs {
		t.Errorf("lazy (%f) should beat early (%f) and late (%f) on average:\n%s",
			lazyRefs, earlyRefs, lateRefs, text)
	}
}

func TestTable4(t *testing.T) {
	rows, text, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	// Chez (lazy caller-save) should beat the C-style configuration.
	c := rows[0].Cycles
	chez := rows[len(rows)-1].Cycles
	if chez >= c {
		t.Errorf("lazy caller-save (%d) should beat callee-save early (%d)\n%s", chez, c, text)
	}
}

func TestTable5(t *testing.T) {
	rows, text, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	early, lazy, caller := rows[0].Cycles, rows[1].Cycles, rows[2].Cycles
	if lazy >= early {
		t.Errorf("callee-save lazy (%d) should beat early (%d)\n%s", lazy, early, text)
	}
	if caller >= early {
		t.Errorf("caller-save lazy (%d) should beat callee-save early (%d)\n%s", caller, early, text)
	}
}

// TestShuffleStats pins EXPERIMENTS.md §3.1's totals over the whole
// suite (paper: 7% of call sites cyclic, greedy optimal at all but 6 of
// 20,245).
func TestShuffleStats(t *testing.T) {
	rows, text, err := ShuffleStats(All())
	if err != nil {
		t.Fatal(err)
	}
	var tot ShuffleRow
	for _, r := range rows {
		tot.CallSites += r.CallSites
		tot.CyclicSites += r.CyclicSites
		tot.GreedyTemps += r.GreedyTemps
		tot.OptimalTemps += r.OptimalTemps
		tot.SitesSuboptimal += r.SitesSuboptimal
		tot.WorstExtra = max(tot.WorstExtra, r.WorstExtra)
	}
	want := ShuffleRow{CallSites: 1597, CyclicSites: 62, GreedyTemps: 62, OptimalTemps: 62}
	if tot != want {
		t.Errorf("totals %+v, want %+v\n%s", tot, want, text)
	}
}

// TestRegisterSweep pins EXPERIMENTS.md §4's tak sweep: greedy improves
// monotonically with a flat 5→6 step and naive trails it from c=1 on.
// No golden compiles naive, so this is the exact guard on NaiveShuffle.
func TestRegisterSweep(t *testing.T) {
	p, err := ByName("tak")
	if err != nil {
		t.Fatal(err)
	}
	rows, text, err := RegisterSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []SweepRow{
		{0, 3196410, 3196410},
		{1, 2480804, 2560314},
		{2, 1828806, 2003728},
		{3, 1685675, 1844695},
		{4, 1526655, 1685675},
		{5, 1526655, 1622067},
		{6, 1526655, 1622067},
	}
	if !slices.Equal(rows, want) {
		t.Errorf("sweep drifted from EXPERIMENTS.md §4:\n%s", text)
	}
}

func TestRestoreStudy(t *testing.T) {
	rows, text, err := RestoreStudy(quickSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Lazy executes no more restores than eager.
		if r.LazyRestores > r.EagerRestores {
			t.Errorf("%s: lazy restores (%d) exceed eager (%d)\n%s",
				r.Name, r.LazyRestores, r.EagerRestores, text)
		}
		// And run time is in the same ballpark (the paper's finding);
		// allow a generous band for the simulator.
		ratio := float64(r.LazyCycles) / float64(r.EagerCycles)
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("%s: lazy/eager cycle ratio %.2f out of band\n%s", r.Name, ratio, text)
		}
	}
}

func TestSaveAlgorithmAblation(t *testing.T) {
	rows, text, err := SaveAlgorithmAblation(quickSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	var revised, simple int64
	for _, r := range rows {
		revised += r.RevisedRefs
		simple += r.SimpleRefs
	}
	// The revised algorithm never does worse in aggregate (§2.1.2: the
	// simple algorithm is "too lazy" and pays with repeated saves).
	if revised > simple {
		t.Errorf("revised (%d refs) should not exceed simple (%d)\n%s", revised, simple, text)
	}
}

func TestFigure1(t *testing.T) {
	s, err := Figure1(500)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "S_t[(and E1 E2)]") {
		t.Errorf("figure 1 output incomplete:\n%s", s)
	}
}

func TestFigure2(t *testing.T) {
	s, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "2c") {
		t.Errorf("figure 2 output incomplete:\n%s", s)
	}
}

func TestBranchStudy(t *testing.T) {
	rows, _, err := BranchStudy(quickSuite(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	gains := 0
	for _, r := range rows {
		if r.Predicted < r.Unpredicted {
			gains++
		}
	}
	if gains < len(rows)/2 {
		t.Errorf("prediction helped only %d of %d benchmarks", gains, len(rows))
	}
}

func TestCompileTimeStudy(t *testing.T) {
	s, err := CompileTimeStudy(quickSuite(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "register allocation") {
		t.Errorf("compile-time output incomplete:\n%s", s)
	}
}

func TestStrategyOptionsHelpers(t *testing.T) {
	if o := StrategyOptions(codegen.SaveEarly); o.Saves != codegen.SaveEarly {
		t.Error("StrategyOptions ignored the strategy")
	}
	if o := CalleeSaveOptions(codegen.SaveLazy); !o.CalleeSave || o.Config.CalleeSaveRegs == 0 {
		t.Error("CalleeSaveOptions misconfigured")
	}
}
