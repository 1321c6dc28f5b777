package vm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prim"
	"repro/internal/sexp"
)

// asm builds a program around a hand-written main body. The code is laid
// out as [halt, entry args=0 frame=8, body...]; procs can be appended.
func asm(body ...Instr) *Program {
	code := []Instr{
		{Op: OpHalt},
		{Op: OpEntry, A: 0, B: 8},
	}
	code = append(code, body...)
	return &Program{
		Code:         code,
		Consts:       nil,
		ConstMutable: nil,
		Procs:        []ProcInfo{{Name: "main", Entry: 1}},
		MainIndex:    0,
		Config:       DefaultConfig(),
	}
}

func runProgram(t *testing.T, p *Program) (prim.Value, *Machine) {
	t.Helper()
	m := New(p, nil)
	v, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, m
}

func (p *Program) withConst(v prim.Value) (int, *Program) {
	p.Consts = append(p.Consts, v)
	p.ConstMutable = append(p.ConstMutable, false)
	return len(p.Consts) - 1, p
}

func (p *Program) withPrim(name string) int {
	p.Prims = append(p.Prims, prim.Lookup(sexp.Symbol(name)))
	return len(p.Prims) - 1
}

func TestMoveConstReturn(t *testing.T) {
	p := asm(
		Instr{Op: OpLoadConst, A: RegRV, B: 0},
		Instr{Op: OpReturn},
	)
	_, p = p.withConst(prim.FixV(42))
	v, m := runProgram(t, p)
	if v != prim.FixV(42) {
		t.Errorf("got %v", v)
	}
	if m.Counters.Instructions == 0 {
		t.Error("instructions not counted")
	}
}

func TestPrimAndOperandEncoding(t *testing.T) {
	cfg := DefaultConfig()
	s0 := cfg.ScratchReg(0)
	p := asm(
		Instr{Op: OpLoadConst, A: s0, B: 0},
		Instr{Op: OpStoreSlot, A: s0, B: 3, Kind: KindTemp},
		Instr{Op: OpLoadConst, A: s0, B: 1},
		// rv = +(reg s0, slot 3): mixed register/memory operands
		Instr{Op: OpPrim, A: RegRV, B: 0, Regs: []int{s0, ^3}},
		Instr{Op: OpReturn},
	)
	_, p = p.withConst(prim.FixV(30))
	_, p = p.withConst(prim.FixV(12))
	p.withPrim("+")
	v, m := runProgram(t, p)
	if v != prim.FixV(42) {
		t.Errorf("got %v", v)
	}
	// One slot write, one slot read (the memory operand).
	if m.Counters.StackWrites != 1 || m.Counters.StackReads != 1 {
		t.Errorf("stack refs = %d writes, %d reads", m.Counters.StackWrites, m.Counters.StackReads)
	}
	// The memory operand pays penalty + a full load-use stall.
	if m.Counters.StallCycles == 0 {
		t.Error("memory operand should stall")
	}
}

func TestBranchAndJump(t *testing.T) {
	s0 := DefaultConfig().ScratchReg(0)
	p := asm(
		Instr{Op: OpLoadConst, A: s0, B: 0},    // #f
		Instr{Op: OpBranchFalse, A: s0, B: 6},  // jump to else
		Instr{Op: OpLoadConst, A: RegRV, B: 1}, // (not executed)
		Instr{Op: OpJump, A: 7},
		Instr{Op: OpLoadConst, A: RegRV, B: 2}, // pc 6: else
		Instr{Op: OpReturn},                    // pc 7
	)
	_, p = p.withConst(prim.BoolV(false))
	_, p = p.withConst(prim.SymV("then"))
	_, p = p.withConst(prim.SymV("else"))
	v, m := runProgram(t, p)
	if v != prim.SymV("else") {
		t.Errorf("got %v", v)
	}
	if m.Counters.Branches != 1 {
		t.Errorf("branches = %d", m.Counters.Branches)
	}
}

func TestBranchPredictionCounters(t *testing.T) {
	s0 := DefaultConfig().ScratchReg(0)
	p := asm(
		Instr{Op: OpLoadConst, A: s0, B: 0},               // #t -> not taken
		Instr{Op: OpBranchFalse, A: s0, B: 5, Predict: 1}, // predicted taken: mispredict
		Instr{Op: OpLoadConst, A: RegRV, B: 0},
		Instr{Op: OpReturn},
	)
	_, p = p.withConst(prim.BoolV(true))
	m := New(p, nil)
	cost := DefaultCostModel()
	cost.BranchMispredict = 7
	m.SetCostModel(cost)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Counters.Mispredicts != 1 || m.Counters.PredictedBranches != 1 {
		t.Errorf("mispredicts=%d predicted=%d", m.Counters.Mispredicts, m.Counters.PredictedBranches)
	}
}

func TestCallReturnAndArity(t *testing.T) {
	cfg := DefaultConfig()
	a0 := cfg.ArgReg(0)
	// proc double: rv = a0 + a0; return
	p := asm(
		// main: closure for double, call with 5 (saving ret around it)
		Instr{Op: OpStoreSlot, A: RegRet, B: 0, Kind: KindSave},
		Instr{Op: OpClosure, A: RegCP, B: 1, Regs: nil},
		Instr{Op: OpLoadConst, A: a0, B: 0},
		Instr{Op: OpCall, A: 1, B: 8},
		Instr{Op: OpLoadSlot, A: RegRet, B: 0, Kind: KindRestore},
		Instr{Op: OpReturn},
	)
	entry := len(p.Code)
	p.Code = append(p.Code,
		Instr{Op: OpEntry, A: 1, B: 4},
		Instr{Op: OpPrim, A: RegRV, B: 0, Regs: []int{a0, a0}},
		Instr{Op: OpReturn},
	)
	p.Procs = append(p.Procs, ProcInfo{Name: "double", Entry: entry, NArgs: 1, SyntacticLeaf: true})
	_, p = p.withConst(prim.FixV(5))
	p.withPrim("+")
	v, m := runProgram(t, p)
	if v != prim.FixV(10) {
		t.Errorf("got %v", v)
	}
	if m.Counters.Calls != 1 {
		t.Errorf("calls = %d", m.Counters.Calls)
	}
	if m.Counters.SyntacticLeaves != 1 {
		t.Errorf("syntactic leaves = %d", m.Counters.SyntacticLeaves)
	}

	// Arity violation traps.
	bad := asm(
		Instr{Op: OpStoreSlot, A: RegRet, B: 0, Kind: KindSave},
		Instr{Op: OpClosure, A: RegCP, B: 1, Regs: nil},
		Instr{Op: OpCall, A: 2, B: 8}, // double expects 1
		Instr{Op: OpLoadSlot, A: RegRet, B: 0, Kind: KindRestore},
		Instr{Op: OpReturn},
	)
	entry = len(bad.Code)
	bad.Code = append(bad.Code,
		Instr{Op: OpEntry, A: 1, B: 4},
		Instr{Op: OpReturn},
	)
	bad.Procs = append(bad.Procs, ProcInfo{Name: "double", Entry: entry, NArgs: 1})
	m2 := New(bad, nil)
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "expects 1 arguments") {
		t.Errorf("expected arity error, got %v", err)
	}
}

func TestApplyNonProcedure(t *testing.T) {
	p := asm(
		Instr{Op: OpStoreSlot, A: RegRet, B: 0, Kind: KindSave},
		Instr{Op: OpLoadConst, A: RegCP, B: 0},
		Instr{Op: OpCall, A: 0, B: 8},
		Instr{Op: OpReturn},
	)
	_, p = p.withConst(prim.FixV(3))
	m := New(p, nil)
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "non-procedure") {
		t.Errorf("got %v", err)
	}
}

func TestClosurePatchAndFreeRef(t *testing.T) {
	cfg := DefaultConfig()
	s0 := cfg.ScratchReg(0)
	s1 := cfg.ScratchReg(1)
	p := asm(
		Instr{Op: OpStoreSlot, A: RegRet, B: 0, Kind: KindSave},
		Instr{Op: OpLoadConst, A: s1, B: 0}, // placeholder
		Instr{Op: OpClosure, A: s0, B: 1, Regs: []int{s1}},
		Instr{Op: OpLoadConst, A: s1, B: 1}, // real value 99
		Instr{Op: OpClosurePatch, A: s0, B: 0, C: s1},
		Instr{Op: OpMove, A: RegCP, B: s0},
		Instr{Op: OpCall, A: 0, B: 8},
		Instr{Op: OpLoadSlot, A: RegRet, B: 0, Kind: KindRestore},
		Instr{Op: OpReturn},
	)
	entry := len(p.Code)
	p.Code = append(p.Code,
		Instr{Op: OpEntry, A: 0, B: 4},
		Instr{Op: OpFreeRef, A: RegRV, B: 0},
		Instr{Op: OpReturn},
	)
	p.Procs = append(p.Procs, ProcInfo{Name: "getter", Entry: entry, NFree: 1})
	_, p = p.withConst(prim.BoolV(false))
	_, p = p.withConst(prim.FixV(99))
	v, _ := runProgram(t, p)
	if v != prim.FixV(99) {
		t.Errorf("got %v", v)
	}
}

func TestMutableConstCopied(t *testing.T) {
	// Loading a pair constant twice yields distinct pairs.
	s0 := DefaultConfig().ScratchReg(0)
	s1 := DefaultConfig().ScratchReg(1)
	p := asm(
		Instr{Op: OpLoadConst, A: s0, B: 0},
		Instr{Op: OpLoadConst, A: s1, B: 0},
		Instr{Op: OpPrim, A: RegRV, B: 0, Regs: []int{s0, s1}}, // eq?
		Instr{Op: OpReturn},
	)
	p.Consts = append(p.Consts, prim.PairV(&prim.Pair{Car: prim.FixV(1), Cdr: prim.FixV(2)}))
	p.ConstMutable = append(p.ConstMutable, true)
	p.withPrim("eq?")
	v, _ := runProgram(t, p)
	if v != prim.BoolV(false) {
		t.Errorf("pair constants should be copied per load, got %v", v)
	}
}

// TestCorruptPoolFailsWhenRun pins decodeOne's contract for an
// out-of-range OpLoadConst or OpPrim pool index: decoding succeeds, a
// corrupt instruction that is never reached leaves both engines with
// the same value and Counters, and one that is reached panics on both
// engines (as the switch loop's pool index does) with the same Counters
// and pc. The reached path also loads a mutable constant, so the
// copy-per-load arm runs on both engines.
func TestCorruptPoolFailsWhenRun(t *testing.T) {
	s0 := DefaultConfig().ScratchReg(0)
	corrupt := map[string]Instr{
		"const": {Op: OpLoadConst, A: RegRV, B: 99},
		"prim":  {Op: OpPrim, A: RegRV, B: 99, Regs: []int{s0}},
	}
	run := func(p *Program, eng EngineKind) (res string, panicked bool, m *Machine) {
		m = New(p, nil)
		m.Engine = eng
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		v, err := m.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return prim.WriteString(v), false, m
	}
	for name, bad := range corrupt {
		for _, reached := range []bool{false, true} {
			p := asm(
				Instr{Op: OpLoadConst, A: s0, B: 0},    // pc 2: #t iff reached
				Instr{Op: OpBranchFalse, A: s0, B: 5},  // pc 3
				bad,                                    // pc 4
				Instr{Op: OpLoadConst, A: RegRV, B: 1}, // pc 5: mutable constant
				Instr{Op: OpReturn},
			)
			_, p = p.withConst(prim.BoolV(reached))
			p.Consts = append(p.Consts, prim.PairV(&prim.Pair{Car: prim.FixV(1), Cdr: prim.FixV(2)}))
			p.ConstMutable = append(p.ConstMutable, true)
			p.withPrim("car")

			resT, panT, mT := run(p, EngineThreaded)
			resS, panS, mS := run(p, EngineSwitch)
			label := fmt.Sprintf("%s/reached=%v", name, reached)
			if panT != reached || panS != reached {
				t.Errorf("%s: panicked threaded=%v switch=%v", label, panT, panS)
			}
			if resT != resS || (!reached && resT != "(1 . 2)") {
				t.Errorf("%s: result threaded=%q switch=%q", label, resT, resS)
			}
			if mT.pc != mS.pc {
				t.Errorf("%s: pc threaded=%d switch=%d", label, mT.pc, mS.pc)
			}
			if !reflect.DeepEqual(mT.Counters, mS.Counters) {
				t.Errorf("%s: counter mismatch\nthreaded: %+v\nswitch:   %+v", label, mT.Counters, mS.Counters)
			}
		}
	}
}

func TestValidateRestoresPoison(t *testing.T) {
	cfg := DefaultConfig()
	u0 := cfg.UserReg(0)
	// main puts a value in a user register, calls a leaf, then reads the
	// user register without restoring: must trap under validation.
	p := asm(
		Instr{Op: OpLoadConst, A: u0, B: 0},
		Instr{Op: OpClosure, A: RegCP, B: 1, Regs: nil},
		Instr{Op: OpStoreSlot, A: RegRet, B: 0, Kind: KindSave},
		Instr{Op: OpCall, A: 0, B: 8},
		Instr{Op: OpLoadSlot, A: RegRet, B: 0, Kind: KindRestore},
		Instr{Op: OpMove, A: RegRV, B: u0}, // read of destroyed register
		Instr{Op: OpReturn},
	)
	entry := len(p.Code)
	p.Code = append(p.Code,
		Instr{Op: OpEntry, A: 0, B: 4},
		Instr{Op: OpLoadConst, A: RegRV, B: 0},
		Instr{Op: OpReturn},
	)
	p.Procs = append(p.Procs, ProcInfo{Name: "leaf", Entry: entry, SyntacticLeaf: true})
	_, p = p.withConst(prim.FixV(1))

	// Without validation it runs (value is whatever remains).
	m := New(p, nil)
	if _, err := m.Run(); err != nil {
		t.Fatalf("unvalidated run failed: %v", err)
	}
	// With validation it traps.
	m2 := New(p, nil)
	m2.ValidateRestores = true
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "destroyed register") {
		t.Errorf("expected poison trap, got %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	p := asm(
		Instr{Op: OpJump, A: 2}, // spin forever
	)
	m := New(p, nil)
	m.MaxSteps = 1000
	_, err := m.Run()
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("want ErrFuelExhausted, got %v", err)
	}
	var fe *FuelError
	if !errors.As(err, &fe) || fe.Budget != 1000 {
		t.Errorf("want *FuelError with budget 1000, got %v", err)
	}
}

func TestSlotKindAccounting(t *testing.T) {
	s0 := DefaultConfig().ScratchReg(0)
	p := asm(
		Instr{Op: OpLoadConst, A: s0, B: 0},
		Instr{Op: OpStoreSlot, A: s0, B: 0, Kind: KindSave},
		Instr{Op: OpLoadSlot, A: s0, B: 0, Kind: KindRestore},
		Instr{Op: OpStoreSlot, A: s0, B: 1, Kind: KindVar},
		Instr{Op: OpLoadSlot, A: RegRV, B: 1, Kind: KindVar},
		Instr{Op: OpReturn},
	)
	_, p = p.withConst(prim.FixV(7))
	v, m := runProgram(t, p)
	if v != prim.FixV(7) {
		t.Errorf("got %v", v)
	}
	c := m.Counters
	if c.WritesByKind[KindSave] != 1 || c.ReadsByKind[KindRestore] != 1 ||
		c.WritesByKind[KindVar] != 1 || c.ReadsByKind[KindVar] != 1 {
		t.Errorf("kind accounting wrong: %+v %+v", c.ReadsByKind, c.WritesByKind)
	}
	if c.StackRefs() != 4 {
		t.Errorf("stack refs = %d", c.StackRefs())
	}
}

func TestLoadUseStall(t *testing.T) {
	s0 := DefaultConfig().ScratchReg(0)
	mk := func(pad int) *Machine {
		body := []Instr{
			{Op: OpLoadConst, A: s0, B: 0},
			{Op: OpStoreSlot, A: s0, B: 0, Kind: KindTemp},
			{Op: OpLoadSlot, A: s0, B: 0, Kind: KindTemp},
		}
		for i := 0; i < pad; i++ {
			body = append(body, Instr{Op: OpLoadConst, A: RegRV, B: 0})
		}
		body = append(body,
			Instr{Op: OpMove, A: RegRV, B: s0}, // consume the load
			Instr{Op: OpReturn},
		)
		p := asm(body...)
		_, p = p.withConst(prim.FixV(1))
		m := New(p, nil)
		if _, err := m.Run(); err != nil {
			panic(err)
		}
		return m
	}
	immediate := mk(0)
	distant := mk(5)
	if immediate.Counters.StallCycles == 0 {
		t.Error("immediate use after load should stall")
	}
	if distant.Counters.StallCycles != 0 {
		t.Errorf("distant use should not stall (got %d)", distant.Counters.StallCycles)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := Config{ArgRegs: 30, UserRegs: 30, ScratchRegs: 30}
	if err := bad.Validate(); err == nil {
		t.Error("oversized register file should fail validation")
	}
	if err := (Config{ArgRegs: -1, ScratchRegs: 8}).Validate(); err == nil {
		t.Error("negative count should fail validation")
	}
}

func TestRegisterLayout(t *testing.T) {
	cfg := Config{ArgRegs: 2, UserRegs: 3, ScratchRegs: 4, CalleeSaveRegs: 5}
	if cfg.ArgReg(0) != 3 || cfg.UserReg(0) != 5 || cfg.ScratchReg(0) != 8 || cfg.CalleeSaveReg(0) != 12 {
		t.Errorf("layout: arg0=%d user0=%d scratch0=%d cs0=%d",
			cfg.ArgReg(0), cfg.UserReg(0), cfg.ScratchReg(0), cfg.CalleeSaveReg(0))
	}
	if cfg.NumRegs() != 17 {
		t.Errorf("NumRegs = %d", cfg.NumRegs())
	}
}

func TestDisassemblerCoversOpcodes(t *testing.T) {
	p := asm(
		Instr{Op: OpLoadConst, A: RegRV, B: 0},
		Instr{Op: OpReturn},
	)
	_, p = p.withConst(prim.FixV(1))
	out := p.Disassemble()
	for _, frag := range []string{"halt", "entry", "const rv", "return", "main:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("disassembly missing %q:\n%s", frag, out)
		}
	}
	// FormatInstr handles every opcode without panicking.
	for op := OpHalt; op <= OpReturn; op++ {
		_ = p.FormatInstr(Instr{Op: op, Regs: []int{3, ^1}})
	}
}

func TestCountersString(t *testing.T) {
	p := asm(
		Instr{Op: OpLoadConst, A: RegRV, B: 0},
		Instr{Op: OpReturn},
	)
	_, p = p.withConst(prim.FixV(1))
	_, m := runProgram(t, p)
	s := m.Counters.String()
	for _, frag := range []string{"instructions", "stack refs", "activations"} {
		if !strings.Contains(s, frag) {
			t.Errorf("counters string missing %q:\n%s", frag, s)
		}
	}
}

// TestBootstrapClosureSlabLifetime pins the machine.go bootstrap
// closure contract: the zero-capture closure Run installs in RegCP
// comes from the machine's closure slab, survives for the whole run
// (and after it, until the embedder recycles), and a Recycle/re-Run
// cycle hands out a fresh one from the same recycled slab.
func TestBootstrapClosureSlabLifetime(t *testing.T) {
	p := asm(
		Instr{Op: OpLoadConst, A: RegRV, B: 0},
		Instr{Op: OpReturn},
	)
	_, p = p.withConst(prim.FixV(7))
	m := New(p, nil)
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != prim.FixV(7) {
		t.Fatalf("got %v", v)
	}
	// No calls happened, so RegCP still holds the bootstrap closure.
	boot, ok := m.regs[RegCP].Heap().(*Closure)
	if !ok {
		t.Fatalf("RegCP does not hold a closure after Run: %v", m.regs[RegCP])
	}
	if boot.Proc != p.MainIndex || boot.Free != nil {
		t.Fatalf("bootstrap closure = %+v, want Proc %d with nil Free", boot, p.MainIndex)
	}
	if m.ctx.Arena.LiveClosures() != 1 {
		t.Errorf("LiveClosures after run = %d, want 1 (just the bootstrap)", m.ctx.Arena.LiveClosures())
	}

	m.Recycle()
	if m.ctx.Arena.LiveClosures() != 0 {
		t.Errorf("LiveClosures after Recycle = %d, want 0", m.ctx.Arena.LiveClosures())
	}
	// A second run draws a fresh bootstrap closure from the recycled slab.
	v, err = m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v != prim.FixV(7) {
		t.Fatalf("re-run after Recycle: got %v", v)
	}
	if m.ctx.Arena.LiveClosures() != 1 {
		t.Errorf("LiveClosures after re-run = %d, want 1", m.ctx.Arena.LiveClosures())
	}
}

// TestClosureResultEscapesViaCopyTree is the escape-hatch proof for
// closure results: a closure returned by a run lives in the machine's
// arena, so an embedder that wants to hold it across Recycle must deep
// copy it with prim.CopyTree(nil, v) — and the copy (object, free
// slice, and captured pairs alike) must survive a Recycle that kills
// the originals.
func TestClosureResultEscapesViaCopyTree(t *testing.T) {
	s0, s1 := DefaultConfig().ScratchReg(0), DefaultConfig().ScratchReg(1)
	p := asm(
		// capture '(1 . 2) (arena-copied per load) and the fixnum 9
		Instr{Op: OpLoadConst, A: s0, B: 0},
		Instr{Op: OpLoadConst, A: s1, B: 1},
		Instr{Op: OpClosure, A: RegRV, B: 0, Regs: []int{s0, s1}},
		Instr{Op: OpReturn},
	)
	p.Consts = append(p.Consts, prim.PairV(&prim.Pair{Car: prim.FixV(1), Cdr: prim.FixV(2)}))
	p.ConstMutable = append(p.ConstMutable, true)
	_, p = p.withConst(prim.FixV(9))
	m := New(p, nil)
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	orig, ok := v.Heap().(*Closure)
	if !ok {
		t.Fatalf("result is not a closure: %v", v)
	}

	cp := prim.CopyTree(nil, v)
	kept, ok := cp.Heap().(*Closure)
	if !ok || kept == orig {
		t.Fatalf("CopyTree did not produce a fresh closure: %v", cp)
	}

	m.Recycle()
	if kept.Proc != p.MainIndex || len(kept.Free) != 2 {
		t.Fatalf("escaped copy damaged by Recycle: %+v", kept)
	}
	pair, ok := kept.Free[0].Pair()
	if !ok {
		t.Fatal("escaped copy lost its captured pair")
	}
	if car, _ := pair.Car.Fixnum(); car != 1 {
		t.Errorf("escaped pair car = %v, want 1", pair.Car)
	}
	if kept.Free[1] != prim.FixV(9) {
		t.Errorf("escaped immediate = %v, want 9", kept.Free[1])
	}
	// The original slab closure is dead, as the contract says.
	if orig.Free != nil {
		t.Error("slab closure survived Recycle; zeroing broken")
	}
}
