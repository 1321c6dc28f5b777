package analysis_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/verify"
	"repro/internal/vm"
)

// sweepOptions mirrors the seven configurations the lint and verify
// sweeps exercise.
func sweepOptions() map[string]compiler.Options {
	lazyRestores := bench.PaperOptions()
	lazyRestores.Restores = codegen.RestoreLazy
	return map[string]compiler.Options{
		"paper":         bench.PaperOptions(),
		"early":         bench.StrategyOptions(codegen.SaveEarly),
		"late":          bench.StrategyOptions(codegen.SaveLate),
		"simple":        bench.StrategyOptions(codegen.SaveSimple),
		"lazy-restores": lazyRestores,
		"callee-save":   bench.CalleeSaveOptions(codegen.SaveLazy),
		"baseline":      bench.BaselineOptions(),
	}
}

// TestCleanUnderAllConfigs is the optimality claim on real output: a
// few representative programs, compiled under every swept
// configuration, carry zero redundant saves and zero excess shuffle
// moves, and the analyzer's site counts agree with the code
// generator's own static statistics.
func TestCleanUnderAllConfigs(t *testing.T) {
	srcs := map[string]string{
		"swap-cycle": `
			(define (g a b) (if (< a b) (g b a) a))
			(define (f x y) (+ (g y x) (g x y)))
			(f 3 9)`,
		"nested-calls": `
			(define (leaf n) (+ n 1))
			(define (mid n) (leaf (leaf n)))
			(define (top n) (mid (+ (mid n) (leaf n))))
			(top 5)`,
	}
	for cname, opts := range sweepOptions() {
		for sname, src := range srcs {
			c, err := compiler.Compile(src, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", cname, sname, err)
			}
			rep := analysis.Analyze(c.Program)
			if err := rep.WasteError(); err != nil {
				t.Errorf("%s/%s: %v", cname, sname, err)
			}
			if rep.Totals.Saves != c.Stats.SaveSites {
				t.Errorf("%s/%s: analyzer counted %d saves, codegen emitted %d",
					cname, sname, rep.Totals.Saves, c.Stats.SaveSites)
			}
			if rep.Totals.Restores != c.Stats.RestoreSites {
				t.Errorf("%s/%s: analyzer counted %d restores, codegen emitted %d",
					cname, sname, rep.Totals.Restores, c.Stats.RestoreSites)
			}
		}
	}
}

// TestNaiveShuffleFlagged compiles a call whose argument assignment
// needs ordering (the first argument register is the source of the
// second argument) under the naive left-to-right shuffler and under
// the greedy one. Naive staging must be flagged as excess; greedy must
// be clean (§2.3).
func TestNaiveShuffleFlagged(t *testing.T) {
	src := `
		(define (g a b c) (+ a (+ b c)))
		(define (f x y) (g x x y))
		(f 1 2)`

	naive := bench.PaperOptions()
	naive.Shuffle = codegen.ShuffleNaive
	c, err := compiler.Compile(src, naive)
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(c.Program)
	if rep.Totals.ExcessShuffleMoves == 0 {
		t.Errorf("naive shuffle produced no excess-shuffle-move finding:\n%s", rep.Render())
	}

	greedy, err := compiler.Compile(src, bench.PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	grep := analysis.Analyze(greedy.Program)
	if grep.Totals.ExcessShuffleMoves != 0 || grep.Totals.ExcessShuffleTemps != 0 {
		t.Errorf("greedy shuffle flagged as excess:\n%s", grep.Render())
	}
}

// corpusProgram hand-builds a program exhibiting all four waste kinds
// in one procedure:
//
//	f:  entry args=1 frame=6
//	    store ret -> fp[0] (save)      ; legitimate: restored below
//	    store r3  -> fp[2] (save)      ; REDUNDANT: fp[2] never read
//	    move  r15 <- r3                ; shuffle stages r3 needlessly
//	    move  r5  <- r6                ; independent transfer
//	    move  r4  <- r15               ; 3 moves/1 temp for a 2-move,
//	    gload cp  <- g                 ;   0-temp assignment: EXCESS
//	    call  argc=2
//	    load  r3  <- fp[3] (restore)   ; DEAD: overwritten before read
//	    load  r3  <- fp[3] (restore)   ; legitimate: read below
//	    load  ret <- fp[0] (restore)
//	    move  rv  <- r3
//	    return
func corpusProgram() *vm.Program {
	e := 3 // f's entry pc
	code := []vm.Instr{
		0:  {Op: vm.OpHalt},
		1:  {Op: vm.OpEntry, A: 0, B: 1}, // main (unused stub)
		2:  {Op: vm.OpHalt},
		3:  {Op: vm.OpEntry, A: 1, B: 6},
		4:  {Op: vm.OpStoreSlot, A: vm.RegRet, B: 0, Kind: vm.KindSave},
		5:  {Op: vm.OpStoreSlot, A: 3, B: 2, Kind: vm.KindSave},
		6:  {Op: vm.OpMove, A: 15, B: 3},
		7:  {Op: vm.OpMove, A: 5, B: 6},
		8:  {Op: vm.OpMove, A: 4, B: 15},
		9:  {Op: vm.OpLoadGlobal, A: vm.RegCP, B: 0},
		10: {Op: vm.OpCall, A: 2, B: 6},
		11: {Op: vm.OpLoadSlot, A: 3, B: 3, Kind: vm.KindRestore},
		12: {Op: vm.OpLoadSlot, A: 3, B: 3, Kind: vm.KindRestore},
		13: {Op: vm.OpLoadSlot, A: vm.RegRet, B: 0, Kind: vm.KindRestore},
		14: {Op: vm.OpMove, A: vm.RegRV, B: 3},
		15: {Op: vm.OpReturn},
	}
	return &vm.Program{
		Code: code,
		Procs: []vm.ProcInfo{
			{Name: "main", Entry: 1, NArgs: 0},
			{Name: "f", Entry: e, NArgs: 1},
		},
		MainIndex: 0,
		Config:    vm.DefaultConfig(),
		Shuffles: []vm.ShuffleRecord{{
			StartPC: 6,
			CallPC:  10,
			Assigns: []vm.ShuffleAssign{
				{Target: 4, Src: 3},
				{Target: 5, Src: 6},
			},
		}},
	}
}

// TestCorpusAllKindsFlagged asserts the negative corpus fires all four
// finding kinds, each anchored at the right pc with a witness that
// starts at the procedure entry and passes through the finding.
func TestCorpusAllKindsFlagged(t *testing.T) {
	rep := analysis.Analyze(corpusProgram())

	want := map[analysis.Kind]int{
		analysis.RedundantSave:     5,
		analysis.ExcessShuffleMove: 10,
		analysis.ExcessShuffleTemp: 10,
		analysis.DeadRestore:       11,
	}
	got := map[analysis.Kind]int{}
	for _, f := range rep.Findings {
		if prev, dup := got[f.Kind]; dup {
			t.Errorf("duplicate %s findings at pc %d and %d", f.Kind, prev, f.PC)
		}
		got[f.Kind] = f.PC
		if f.Proc != "f" {
			t.Errorf("%s attributed to %q, want f", f.Kind, f.Proc)
		}
		if len(f.Witness) == 0 || f.Witness[0] != 3 {
			t.Errorf("%s witness %v does not start at the entry", f.Kind, f.Witness)
		}
		seen := false
		for _, pc := range f.Witness {
			if pc == f.PC {
				seen = true
			}
		}
		if !seen {
			t.Errorf("%s witness %v does not pass through pc %d", f.Kind, f.Witness, f.PC)
		}
	}
	for k, pc := range want {
		if got[k] != pc {
			t.Errorf("%s at pc %d, want pc %d (report:\n%s)", k, got[k], pc, rep.Render())
		}
	}
	if len(rep.Findings) != len(want) {
		t.Errorf("got %d findings, want %d:\n%s", len(rep.Findings), len(want), rep.Render())
	}

	// The save/restore witnesses extend past the finding to the point
	// where the wasted value dies.
	for _, f := range rep.Findings {
		if f.Kind == analysis.RedundantSave || f.Kind == analysis.DeadRestore {
			if last := f.Witness[len(f.Witness)-1]; last <= f.PC {
				t.Errorf("%s witness %v has no death tail past pc %d", f.Kind, f.Witness, f.PC)
			}
		}
	}

	if err := rep.WasteError(); err == nil {
		t.Error("WasteError is nil for a wasteful program")
	}
}

// TestCorruptedCompilation takes real compiled benchmarks and corrupts
// them the way a buggy emitter would: overwriting the first of two
// adjacent restores with a copy of the second (a doubled restore — the
// first becomes dead), and overwriting the first of two adjacent saves
// with a copy of the second (a doubled save — the first becomes
// redundant). The analyzer must catch both at the corrupted pc.
func TestCorruptedCompilation(t *testing.T) {
	p, err := bench.ByName("tak")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("doubled-restore", func(t *testing.T) {
		c, err := compiler.Compile(p.Source, bench.PaperOptions())
		if err != nil {
			t.Fatal(err)
		}
		code := c.Program.Code
		pc := -1
		for i := 0; i+1 < len(code); i++ {
			if code[i].Op == vm.OpLoadSlot && code[i].Kind == vm.KindRestore &&
				code[i+1].Op == vm.OpLoadSlot && code[i+1].Kind == vm.KindRestore &&
				code[i].A != code[i+1].A {
				pc = i
				break
			}
		}
		if pc < 0 {
			t.Skip("no adjacent restore pair found")
		}
		code[pc] = code[pc+1]
		rep := analysis.Analyze(c.Program)
		if !hasFinding(rep, analysis.DeadRestore, pc) {
			t.Errorf("no dead-restore at pc %d after doubling a restore:\n%s", pc, rep.Render())
		}
	})

	t.Run("doubled-save", func(t *testing.T) {
		c, err := compiler.Compile(p.Source, bench.PaperOptions())
		if err != nil {
			t.Fatal(err)
		}
		code := c.Program.Code
		pc := -1
		for i := 0; i+1 < len(code); i++ {
			if code[i].Op == vm.OpStoreSlot && code[i].Kind == vm.KindSave &&
				code[i+1].Op == vm.OpStoreSlot && code[i+1].Kind == vm.KindSave &&
				code[i].B != code[i+1].B {
				pc = i
				break
			}
		}
		if pc < 0 {
			t.Skip("no adjacent save pair found")
		}
		code[pc] = code[pc+1]
		rep := analysis.Analyze(c.Program)
		if !hasFinding(rep, analysis.RedundantSave, pc) {
			t.Errorf("no redundant-save at pc %d after doubling a save:\n%s", pc, rep.Render())
		}
	})
}

func hasFinding(rep *analysis.Report, k analysis.Kind, pc int) bool {
	for _, f := range rep.Findings {
		if f.Kind == k && f.PC == pc {
			return true
		}
	}
	return false
}

// cutBefore is p's procedures whose entry lies before from, as a
// program of their own with no main: the shape in which the prelude's
// procedures are checked once per options key. p's procedure table and
// shuffle records are in address order, so these are prefixes of them.
func cutBefore(p *vm.Program, from int) *vm.Program {
	c := &vm.Program{Code: p.Code[:from], Consts: p.Consts, Prims: p.Prims, MainIndex: -1, GlobalNames: p.GlobalNames, Config: p.Config}
	for _, info := range p.Procs {
		if info.Entry < from {
			c.Procs = append(c.Procs, info)
		}
	}
	for _, rec := range p.Shuffles {
		if rec.StartPC < from {
			c.Shuffles = append(c.Shuffles, rec)
		}
	}
	return c
}

// TestVerdictsAreLocal: each procedure's verify and lint verdict is a
// function of that procedure alone. A program is cut at every
// procedure's entry. The procedures before the cut, checked as a
// program of their own, and the part from the cut on, checked with the
// program-wide checks (verify.ProgramFrom, analysis.AnalyzeFrom), give
// exactly the whole program's violations and lint report. The program
// has a save dropped in its first and its last procedure that save, so
// most cuts have violations on both sides. The merged lint report
// shares no memory with the cut's.
func TestVerdictsAreLocal(t *testing.T) {
	for _, name := range []string{"ctak", "browse"} {
		bp, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.Compile(bp.Source, bench.PaperOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := c.Program
		var saves []int
		for pc, in := range p.Code {
			if in.Op == vm.OpStoreSlot && in.Kind == vm.KindSave {
				saves = append(saves, pc)
			}
		}
		for _, pc := range []int{saves[0], saves[len(saves)-1]} {
			p.Code[pc] = vm.Instr{Op: vm.OpJump, A: pc + 1}
		}
		wantV := fmt.Sprintf("%+v", verify.Program(p))
		wantL := analysis.Analyze(p)
		if len(wantL.Findings) == 0 || wantV == "[]" {
			t.Fatalf("%s: the broken program has no violations or no lint findings", name)
		}
		cutWitnesses := 0
		for _, info := range p.Procs {
			from := info.Entry
			pre := cutBefore(p, from)
			gotV := append(verify.Procedures(pre, 0), verify.ProgramFrom(p, from)...)
			if got := fmt.Sprintf("%+v", gotV); got != wantV {
				t.Fatalf("%s cut at %d: violations\n%s\nwant\n%s", name, from, got, wantV)
			}
			preL := analysis.Analyze(pre)
			for _, f := range preL.Findings {
				cutWitnesses += len(f.Witness)
			}
			before := fmt.Sprintf("%+v", *preL)
			gotL := analysis.AnalyzeFrom(p, from)
			gotL.MergePrefix(preL)
			if !reflect.DeepEqual(gotL, wantL) {
				t.Fatalf("%s cut at %d: lint report\n%+v\nwant\n%+v", name, from, *gotL, *wantL)
			}
			for i := range gotL.Findings {
				for j := range gotL.Findings[i].Witness {
					gotL.Findings[i].Witness[j] = -99
				}
				gotL.Findings[i].Msg = "overwritten"
			}
			for i := range gotL.Procs {
				gotL.Procs[i] = analysis.ProcCost{Name: "overwritten"}
			}
			if after := fmt.Sprintf("%+v", *preL); after != before {
				t.Fatalf("%s cut at %d: the merged report shares memory with the cut's", name, from)
			}
		}
		if cutWitnesses == 0 {
			t.Fatalf("%s: no cut's own report has a witness to overwrite", name)
		}
	}
}
