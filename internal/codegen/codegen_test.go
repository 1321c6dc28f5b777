package codegen

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/vm"
)

// build lowers source through the front end into IR (no prelude).
func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := ast.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	irProg, err := passes.ClosureConvert(passes.AssignConvert(prog))
	if err != nil {
		t.Fatal(err)
	}
	return irProg
}

func procByName(t *testing.T, p *ir.Program, name string) *ir.Proc {
	t.Helper()
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	t.Fatalf("no proc %q", name)
	return nil
}

func TestAssignLocationsParams(t *testing.T) {
	prog := build(t, "(define (f a b c) (+ a b c)) (f 1 2 3)")
	cg := &codegen{opts: Options{Config: vm.Config{ArgRegs: 2, UserRegs: 2, ScratchRegs: 8}}}
	f := procByName(t, prog, "f")
	stackParams, _ := cg.assignLocations(f)
	if stackParams != 1 {
		t.Errorf("stackParams = %d, want 1", stackParams)
	}
	if f.Params[0].Loc.Kind != ir.LocReg || f.Params[0].Loc.Index != cg.opts.Config.ArgReg(0) {
		t.Errorf("param a placed at %v", f.Params[0].Loc)
	}
	if f.Params[2].Loc.Kind != ir.LocSlot || f.Params[2].Loc.Index != 0 {
		t.Errorf("param c placed at %v", f.Params[2].Loc)
	}
}

func TestAssignLocationsScopeReuse(t *testing.T) {
	// Two sibling lets must reuse the same user register.
	prog := build(t, `
(define (f a)
  (+ (let ([x (+ a 1)]) x)
     (let ([y (+ a 2)]) y)))
(f 1)`)
	cg := &codegen{opts: Options{Config: vm.Config{ArgRegs: 2, UserRegs: 1, ScratchRegs: 8}}}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	var locs []ir.Loc
	var collect func(e ir.Expr)
	collect = func(e ir.Expr) {
		switch n := e.(type) {
		case *ir.Bind:
			locs = append(locs, n.Var.Loc)
			collect(n.Rhs)
			collect(n.Body)
		case *ir.PrimCall:
			for _, a := range n.Args {
				collect(a)
			}
		case *ir.Seq:
			for _, a := range n.Exprs {
				collect(a)
			}
		}
	}
	collect(f.Body)
	if len(locs) != 2 {
		t.Fatalf("found %d binds", len(locs))
	}
	if locs[0] != locs[1] {
		t.Errorf("sibling binds should share a register: %v vs %v", locs[0], locs[1])
	}
	if locs[0].Kind != ir.LocReg {
		t.Errorf("expected register placement, got %v", locs[0])
	}
}

func TestAssignLocationsSlotOverflow(t *testing.T) {
	// With zero user registers, nested lets go to distinct frame slots.
	prog := build(t, `
(define (f a)
  (let ([x (+ a 1)])
    (let ([y (+ x 1)])
      (+ x y))))
(f 1)`)
	cg := &codegen{opts: Options{Config: vm.BaselineConfig()}}
	f := procByName(t, prog, "f")
	_, varSlots := cg.assignLocations(f)
	if varSlots != 2 {
		t.Errorf("varSlots = %d, want 2", varSlots)
	}
}

func TestAnalyzeAnnotations(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a)
  (if (< a 0)
      a
      (+ 1 (g a))))
(f 1)`)
	opts := DefaultOptions()
	cg := &codegen{opts: opts}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	entrySaves := cg.analyzeProc(f)

	// f has a call-free path (the then branch), so nothing is saved at
	// entry under the lazy strategy...
	if !entrySaves.IsEmpty() {
		t.Errorf("entry saves = %s, want empty", entrySaves)
	}
	if f.SyntacticLeaf {
		t.Error("f is not a syntactic leaf")
	}
	if f.CallInevitable {
		t.Error("f has a call-free path")
	}
	// ...and the else branch carries the saves. Only ret is live after
	// the call (a's last use is as the argument), so only ret is saved.
	iff := findIf(f.Body)
	if iff == nil {
		t.Fatal("no if in body")
	}
	if !iff.ThenSaves.IsEmpty() {
		t.Errorf("then-branch saves = %s, want empty", iff.ThenSaves)
	}
	aReg := f.Params[0].Loc.Index
	if !iff.ElseSaves.Has(retReg) {
		t.Errorf("else-branch saves = %s, want ret", iff.ElseSaves)
	}
	if iff.ElseSaves.Has(aReg) {
		t.Errorf("a (r%d) is dead after the call and must not be saved: %s", aReg, iff.ElseSaves)
	}

	// The call is annotated with liveness and restore information.
	call := findCall(f.Body)
	if call == nil {
		t.Fatal("no call in body")
	}
	if !call.LiveAfter.Has(retReg) {
		t.Errorf("ret should be live after the call: %s", call.LiveAfter)
	}
	if !call.RefsAfter.Has(retReg) {
		t.Errorf("ret is referenced before the next call (the return): %s", call.RefsAfter)
	}
}

func TestAnalyzeCallInevitable(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a) (+ 1 (g a)))
(f 1)`)
	cg := &codegen{opts: DefaultOptions()}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	saves := cg.analyzeProc(f)
	if !f.CallInevitable {
		t.Error("every path through f calls")
	}
	if !saves.Has(retReg) {
		t.Errorf("ret must be saved at entry: %s", saves)
	}
}

func TestEarlyStrategySavesAtEntry(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a)
  (if (< a 0) a (+ 1 (g a))))
(f 1)`)
	opts := DefaultOptions()
	opts.Saves = SaveEarly
	cg := &codegen{opts: opts}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	saves := cg.analyzeProc(f)
	// Early saves at entry everything ever live across a call — even
	// though the then-path never calls.
	if !saves.Has(retReg) {
		t.Errorf("early strategy should save ret at entry: %s", saves)
	}
	iff := findIf(f.Body)
	if !iff.ThenSaves.IsEmpty() || !iff.ElseSaves.IsEmpty() {
		t.Error("early strategy places no branch saves")
	}
}

func TestLateStrategyAnnotatesCalls(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a) (+ a (g a)))
(f 1)`)
	opts := DefaultOptions()
	opts.Saves = SaveLate
	cg := &codegen{opts: opts}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	saves := cg.analyzeProc(f)
	if !saves.IsEmpty() {
		t.Errorf("late strategy saves nothing at entry: %s", saves)
	}
	call := findCall(f.Body)
	if call.LateSaves.IsEmpty() {
		t.Error("late strategy should annotate the call with saves")
	}
}

func TestRegReads(t *testing.T) {
	prog := build(t, `
(define (f a b)
  (g (+ a 1) (h b)))
(f 1 2)`)
	cg := &codegen{opts: DefaultOptions()}
	f := procByName(t, prog, "f")
	cg.assignLocations(f)
	aReg := f.Params[0].Loc.Index
	bReg := f.Params[1].Loc.Index
	call := findCall(f.Body) // outermost (tail) call to g
	reads := regReads(call)
	if !reads.Has(aReg) || !reads.Has(bReg) {
		t.Errorf("call reads %s, want a (r%d) and b (r%d)", reads, aReg, bReg)
	}
	// Tail calls read ret.
	if !reads.Has(retReg) {
		t.Errorf("tail call should read ret: %s", reads)
	}
}

func TestMarkCrossing(t *testing.T) {
	prog := build(t, `
(define (g x) x)
(define (f a b)
  (+ (g a) b))
(f 1 2)`)
	f := procByName(t, prog, "f")
	markCrossing(f)
	// b is read after the call to g: crossing. The pass is deliberately
	// conservative (argument reads are marked too), so a is also
	// crossing; the essential property is that b is never missed.
	if !f.Params[1].CrossCall {
		t.Error("b must be marked crossing")
	}
}

func TestCompileStats(t *testing.T) {
	prog := build(t, `
(define (swap a b) (if (zero? a) b (swap b (- a 1))))
(swap 3 4)`)
	opts := DefaultOptions()
	opts.ComputeShuffleStats = true
	_, stats, err := Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CallSites == 0 || stats.Procs < 2 {
		t.Errorf("stats incomplete: %+v", stats)
	}
	if stats.CyclicCallSites == 0 {
		t.Error("swap's recursive call has an argument cycle")
	}
	if stats.SitesOptimal+stats.SitesSuboptimal != stats.CallSites {
		t.Error("optimality accounting inconsistent")
	}
}

// TestShuffleStatsWideRotation: ComputeShuffleStats stays cheap on the
// widest call the register file allows, a self-call rotating 46
// parameters plus a counter (ArgRegs 47). The rotation is one cycle,
// which one temporary breaks; trying every order would take 46! steps.
func TestShuffleStatsWideRotation(t *testing.T) {
	var params, rotated, actuals strings.Builder
	for i := 1; i <= 46; i++ {
		fmt.Fprintf(&params, " p%d", i)
		fmt.Fprintf(&rotated, " p%d", i%46+1)
		fmt.Fprintf(&actuals, " %d", i)
	}
	prog := build(t, fmt.Sprintf("(define (rot n%s) (if (zero? n) p1 (rot (- n 1)%s))) (rot 3%s)",
		params.String(), rotated.String(), actuals.String()))
	opts := DefaultOptions()
	opts.Config.ArgRegs = 47
	opts.ComputeShuffleStats = true
	start := time.Now()
	_, stats, err := Compile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("compile took %v, want under 1s", d)
	}
	if stats.CyclicCallSites != 1 || stats.ShuffleTemps != 1 || stats.OptimalTemps != stats.ShuffleTemps {
		t.Errorf("rotation: %d cyclic sites, %d greedy temps, %d optimal temps; want 1, 1, 1",
			stats.CyclicCallSites, stats.ShuffleTemps, stats.OptimalTemps)
	}
}

func TestCompileRejectsBadConfig(t *testing.T) {
	prog := build(t, "(+ 1 2)")
	opts := DefaultOptions()
	opts.Config = vm.Config{ArgRegs: 40, UserRegs: 40, ScratchRegs: 8}
	if _, _, err := Compile(prog, opts); err == nil {
		t.Error("expected config validation error")
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[SaveStrategy]string{
		SaveLazy: "lazy", SaveEarly: "early", SaveLate: "late", SaveSimple: "simple",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if !strings.Contains(SaveStrategy(99).String(), "99") {
		t.Error("unknown strategy should print its number")
	}
	if RestoreLazy.String() != "lazy" || RestoreEager.String() != "eager" {
		t.Error("restore policy strings")
	}
	if ShuffleNaive.String() != "naive" || ShuffleGreedy.String() != "greedy" {
		t.Error("shuffle method strings")
	}
	if got := ShuffleMethod(1).String(); got != "ShuffleMethod(1)" {
		t.Errorf("the unused shuffle value prints %q", got)
	}
}

// TestParseOptionNames: every name an option's String prints parses
// back to that option, and an unknown name lists the known ones.
func TestParseOptionNames(t *testing.T) {
	for _, s := range []SaveStrategy{SaveLazy, SaveEarly, SaveLate, SaveSimple} {
		if got, err := ParseSaveStrategy(s.String()); err != nil || got != s {
			t.Errorf("ParseSaveStrategy(%q) = %v, %v", s, got, err)
		}
	}
	for _, r := range []RestorePolicy{RestoreEager, RestoreLazy} {
		if got, err := ParseRestorePolicy(r.String()); err != nil || got != r {
			t.Errorf("ParseRestorePolicy(%q) = %v, %v", r, got, err)
		}
	}
	for _, m := range []ShuffleMethod{ShuffleGreedy, ShuffleNaive} {
		if got, err := ParseShuffleMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseShuffleMethod(%q) = %v, %v", m, got, err)
		}
	}
	_, err := ParseSaveStrategy("?")
	if want := `unknown save strategy "?" (want lazy, early, late or simple)`; err == nil || err.Error() != want {
		t.Errorf("ParseSaveStrategy(?) error = %v, want %s", err, want)
	}
	// The shuffle names skip the unused value 1: neither its old name
	// nor the empty string parses.
	for _, name := range []string{"optimal", ""} {
		_, err = ParseShuffleMethod(name)
		if want := fmt.Sprintf("unknown shuffle method %q (want greedy or naive)", name); err == nil || err.Error() != want {
			t.Errorf("ParseShuffleMethod(%q) error = %v, want %s", name, err, want)
		}
	}
}

func TestSlotReads(t *testing.T) {
	slotVar := &ir.Var{Name: "s", Loc: ir.Loc{Kind: ir.LocSlot, Index: 2}, SaveSlot: -1, CSReg: -1}
	regVar := &ir.Var{Name: "r", Loc: ir.Loc{Kind: ir.LocReg, Index: 5}, SaveSlot: -1, CSReg: -1}
	e := ir.Expr(&ir.PrimCall{Args: []ir.Expr{&ir.VarRef{Var: slotVar}, &ir.VarRef{Var: regVar}}})
	var read []int
	slotsRead(e, func(k int) { read = append(read, k) })
	if len(read) != 1 || read[0] != 2 {
		t.Errorf("slots read %v, want only slot 2", read)
	}
}

// findIf and findCall locate the first node of each type.
func findIf(e ir.Expr) *ir.If {
	var out *ir.If
	walkIR(e, func(x ir.Expr) {
		if n, ok := x.(*ir.If); ok && out == nil {
			out = n
		}
	})
	return out
}

func findCall(e ir.Expr) *ir.Call {
	var out *ir.Call
	walkIR(e, func(x ir.Expr) {
		if n, ok := x.(*ir.Call); ok && out == nil {
			out = n
		}
	})
	return out
}

func walkIR(e ir.Expr, f func(ir.Expr)) {
	f(e)
	switch n := e.(type) {
	case *ir.GlobalSet:
		walkIR(n.Rhs, f)
	case *ir.If:
		walkIR(n.Test, f)
		walkIR(n.Then, f)
		walkIR(n.Else, f)
	case *ir.Seq:
		for _, x := range n.Exprs {
			walkIR(x, f)
		}
	case *ir.Bind:
		walkIR(n.Rhs, f)
		walkIR(n.Body, f)
	case *ir.PrimCall:
		for _, x := range n.Args {
			walkIR(x, f)
		}
	case *ir.Call:
		walkIR(n.Fn, f)
		for _, x := range n.Args {
			walkIR(x, f)
		}
	case *ir.MakeClosure:
		for _, x := range n.Free {
			walkIR(x, f)
		}
	case *ir.Fix:
		for _, c := range n.Closures {
			walkIR(c, f)
		}
		walkIR(n.Body, f)
	case *ir.Save:
		walkIR(n.Body, f)
	}
}
