package vm

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/prim"
)

// Machine executes a compiled Program.
type Machine struct {
	prog  *Program
	cfg   Config
	cost  CostModel
	regs  []prim.Value
	stack []prim.Value
	// readyAt[r] is the cycle at which register r becomes usable after a
	// load (load-use stall modeling).
	readyAt []int64
	globals []prim.Value
	fp      int
	pc      int
	argc    int
	acts    []actEntry
	ctx     *prim.Ctx
	argbuf  []prim.Value
	// fine caches Counting == CountFull for the duration of a run.
	fine bool

	// Counters accumulates all measurements.
	Counters Counters
	// Counting selects the counter fidelity: CountFull (default)
	// maintains every measurement; CountEssential keeps only the cost
	// model's outputs (instructions, cycles, stalls, stack reads and
	// writes — with cycle counts identical to CountFull) and skips the
	// rest of the bookkeeping.
	Counting CounterMode
	// Engine selects the execution engine: EngineThreaded (default,
	// pre-decoded dispatch with one table arm per instruction) or
	// EngineSwitch (the reference decode-every-step loop). Both are
	// observably identical; see exec.go.
	Engine EngineKind
	// MaxSteps is the execution fuel: the maximum number of instructions
	// the machine may execute before Run returns a *FuelError matching
	// ErrFuelExhausted (0 = unlimited). It is the only way to bound a
	// hostile or looping program — the machine does not poll contexts.
	MaxSteps int64
	// ValidateRestores poisons caller-save registers at every call
	// boundary; reading a poisoned register traps. It turns a missing
	// restore into a hard error instead of silent wrong answers.
	ValidateRestores bool
}

// New creates a machine for prog; out receives display/write output (nil
// discards it).
func New(prog *Program, out io.Writer) *Machine {
	m := &Machine{
		prog:    prog,
		cfg:     prog.Config,
		cost:    DefaultCostModel(),
		regs:    make([]prim.Value, prog.Config.NumRegs()),
		readyAt: make([]int64, prog.Config.NumRegs()),
		stack:   make([]prim.Value, 1024),
		globals: make([]prim.Value, len(prog.GlobalNames)),
		ctx:     &prim.Ctx{Out: out, Arena: &prim.Arena{}},
	}
	for i, d := range prog.PrimGlobals {
		if d != nil {
			m.globals[i] = prim.ObjV(&PrimValue{Def: d})
		}
	}
	m.Counters.PerProc = make([]ProcCounters, len(prog.Procs))
	for i, p := range prog.Procs {
		m.Counters.PerProc[i].Name = p.Name
	}
	return m
}

// SetCostModel overrides the default cost model.
func (m *Machine) SetCostModel(c CostModel) { m.cost = c }

// RuntimeError is a trap raised during execution.
type RuntimeError struct {
	PC  int
	Msg string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("vm: runtime error at %d: %s", e.PC, e.Msg)
}

// ErrFuelExhausted is the sentinel for a machine that ran out of its
// step budget. Callers match it with errors.Is; the concrete error is a
// *FuelError carrying the budget and the pc where execution stopped.
var ErrFuelExhausted = errors.New("vm: fuel exhausted")

// FuelError reports that execution consumed its entire step budget
// (Machine.MaxSteps) without halting. It is deterministic: the same
// program with the same budget stops at the same pc.
type FuelError struct {
	// Budget is the MaxSteps the machine started with.
	Budget int64
	// PC is the instruction address at which the budget ran out.
	PC int
}

func (e *FuelError) Error() string {
	return fmt.Sprintf("vm: fuel exhausted after %d steps at pc %d", e.Budget, e.PC)
}

// Is makes errors.Is(err, ErrFuelExhausted) true for *FuelError.
func (e *FuelError) Is(target error) bool { return target == ErrFuelExhausted }

func (m *Machine) errf(format string, args ...interface{}) error {
	return &RuntimeError{PC: m.pc, Msg: fmt.Sprintf(format, args...)}
}

// Run executes the program and returns its result value.
func (m *Machine) Run() (prim.Value, error) {
	m.fine = m.Counting == CountFull
	main := m.prog.Procs[m.prog.MainIndex]
	// The main (bootstrap) closure comes from the machine's own arena
	// slab like every other closure; it lives exactly one run, which is
	// within the Recycle contract (Run re-allocates it each time).
	m.regs[RegCP] = prim.ObjV(m.ctx.AllocClosure(m.prog.MainIndex, 0))
	m.regs[RegRet] = m.retAddr(0, 0) // code[0] is halt
	m.pc = main.Entry
	m.fp = 0
	m.argc = 0
	m.acts = append(m.acts[:0], actEntry{proc: int32(m.prog.MainIndex)})
	if m.fine {
		m.Counters.Activations++
		m.Counters.PerProc[m.prog.MainIndex].Activations++
	}
	if m.Engine == EngineSwitch {
		return m.loop()
	}
	return m.runThreaded()
}

// retAddr returns the return-point value for (pc, fp). The common case
// packs both into an immediate (prim.MakeRet), so building a return
// point costs nothing; pc/fp outside the packable range (a hostile or
// pathological program) fall back to the boxed RetAddr. This replaced
// the old per-machine intern table, which existed only to avoid boxing.
func (m *Machine) retAddr(pc, fp int) prim.Value {
	if v, ok := prim.MakeRet(pc, fp); ok {
		return v
	}
	return prim.ObjV(RetAddr{PC: pc, FP: fp})
}

// retTarget decodes a return-point value produced by retAddr.
func retTarget(v prim.Value) (pc, fp int, ok bool) {
	if pc, fp, ok = v.Ret(); ok {
		return pc, fp, true
	}
	if ra, boxed := v.Heap().(RetAddr); boxed {
		return ra.PC, ra.FP, true
	}
	return 0, 0, false
}

// Recycle returns every pair cell, closure object, and free-variable
// slice the machine's arena has handed out to the free lists for reuse
// by subsequent runs. It invalidates ALL values produced by prior runs
// — including list structure or closures referenced from the result
// value or stored into globals — so callers may only recycle when
// those values are no longer needed (e.g. a benchmark harness
// re-running the same program); prim.CopyTree with a nil arena copies
// a result off the arena first when it must outlive the recycle. The
// next Run starts with warm slabs and near-zero pair/closure
// allocation.
func (m *Machine) Recycle() { m.ctx.Arena.Recycle() }

// call dispatches a procedure invocation. newFP is the callee frame
// pointer; for non-tail calls ret has NOT yet been set (done here).
func (m *Machine) call(argc, newFP int, tail bool) error {
	calleeV, err := m.readReg(RegCP)
	if err != nil {
		return err
	}
	if !tail {
		m.acts[len(m.acts)-1].madeCall = true
		if m.fine {
			m.Counters.Calls++
		}
	} else if m.fine {
		m.Counters.TailCalls++
	}
	switch callee := calleeV.Heap().(type) {
	case *Closure:
		proc := &m.prog.Procs[callee.Proc]
		if !tail {
			m.regs[RegRet] = m.retAddr(m.pc+1, m.fp)
			m.acts = append(m.acts, actEntry{proc: int32(callee.Proc)})
		} else {
			m.classifyTop()
			m.acts[len(m.acts)-1] = actEntry{proc: int32(callee.Proc)}
		}
		if m.fine {
			m.Counters.Activations++
			m.Counters.PerProc[callee.Proc].Activations++
		}
		m.fp = newFP
		m.argc = argc
		m.pc = proc.Entry
		m.poisonAtEntry(argc)
		return nil

	case *PrimValue:
		args, err := m.collectArgs(argc, newFP)
		if err != nil {
			return err
		}
		if err := prim.CheckArity(callee.Def, argc); err != nil {
			return m.errf("%v", err)
		}
		res, err := callee.Def.Fn(m.ctx, args)
		if err != nil {
			return err
		}
		m.regs[RegRV] = res
		if tail {
			// The primitive's result returns directly to our caller.
			rv, err := m.readReg(RegRet)
			if err != nil {
				return err
			}
			rpc, rfp, ok := retTarget(rv)
			if !ok {
				return m.errf("tail call to primitive with corrupt ret register")
			}
			m.classifyTop()
			m.acts = m.acts[:len(m.acts)-1]
			m.pc = rpc
			m.fp = rfp
		} else {
			m.pc++
		}
		m.poisonAfterCall()
		return nil

	case *Cont:
		if argc != 1 {
			return m.errf("continuation expects 1 argument, got %d", argc)
		}
		args, err := m.collectArgs(1, newFP)
		if err != nil {
			return err
		}
		m.resumeCont(callee, args[0])
		return nil

	default:
		return m.errf("attempt to apply non-procedure %s", prim.WriteString(calleeV))
	}
}

// callCC captures the continuation and invokes the receiver in cp with
// it as the single argument. frame is the caller's frame size (the
// instruction's B operand).
func (m *Machine) callCC(frame int) error {
	newFP := m.fp + frame
	k := &Cont{
		Stack:    append([]prim.Value(nil), m.stack[:min(newFP, len(m.stack))]...),
		FP:       m.fp,
		ResumePC: m.pc + 1,
		Acts:     append([]actEntry(nil), m.acts...),
		CSRegs:   append([]prim.Value(nil), m.regs[m.callerSaveLimit():]...),
	}
	k.Acts[len(k.Acts)-1].madeCall = true
	kv := prim.ObjV(k)
	if m.cfg.ArgRegs > 0 {
		m.writeReg(m.cfg.ArgReg(0), kv)
	} else {
		m.storeSlot(newFP, kv, KindArg)
	}
	return m.call(1, newFP, false)
}

// resumeCont reinstates a captured continuation with the given value.
func (m *Machine) resumeCont(k *Cont, value prim.Value) {
	m.ensureStack(len(k.Stack) + 16)
	copy(m.stack, k.Stack)
	// Clear anything above the captured extent within our stack (not
	// semantically necessary; keeps stale values from lingering).
	m.fp = k.FP
	m.pc = k.ResumePC
	m.acts = append(m.acts[:0], k.Acts...)
	copy(m.regs[m.callerSaveLimit():], k.CSRegs)
	m.regs[RegRV] = value
	m.poisonAfterCall()
}

// collectArgs reads an argument list per the calling convention: the
// first ArgRegs arguments from registers, the rest from the callee
// frame's incoming-argument slots.
func (m *Machine) collectArgs(argc, newFP int) ([]prim.Value, error) {
	if cap(m.argbuf) < argc {
		m.argbuf = make([]prim.Value, argc)
	}
	args := m.argbuf[:argc]
	for i := 0; i < argc; i++ {
		if i < m.cfg.ArgRegs {
			v, err := m.readReg(m.cfg.ArgReg(i))
			if err != nil {
				return nil, err
			}
			args[i] = v
		} else {
			v, err := m.loadSlot(newFP+(i-m.cfg.ArgRegs), KindArg)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
	}
	return args, nil
}

// applyPrim applies an open-coded primitive: it reads the encoded
// operands, invokes def and stores the result in register dst. The
// switch loop calls it for every OpPrim; the threaded engine inlines it
// in its xPrim arm and calls it only from the xPrimSlow arm.
func (m *Machine) applyPrim(dst int, def *prim.Def, regs []int) error {
	if cap(m.argbuf) < len(regs) {
		m.argbuf = make([]prim.Value, len(regs))
	}
	args := m.argbuf[:len(regs)]
	for i, r := range regs {
		if r >= 0 {
			if v, ok := m.regFast(r); ok {
				args[i] = v
				continue
			}
		}
		v, err := m.readOperand(r)
		if err != nil {
			return err
		}
		args[i] = v
	}
	if m.fine {
		m.Counters.PrimInstrs++
	}
	res, err := def.Fn(m.ctx, args)
	if err != nil {
		return err
	}
	m.writeReg(dst, res)
	return nil
}

// readOperand reads a register (>= 0) or frame slot (^slot encoding).
// Slot operands behave like a load consumed immediately: they pay the
// memory penalty plus a full load-use stall.
func (m *Machine) readOperand(r int) (prim.Value, error) {
	if !IsSlotOperand(r) {
		return m.readReg(r)
	}
	v, err := m.loadSlot(m.fp+SlotOperand(r), KindTemp)
	if err != nil {
		return prim.Value{}, err
	}
	m.Counters.Cycles += m.cost.LoadLatency
	m.Counters.StallCycles += m.cost.LoadLatency
	return v, nil
}

// regFast is the inlinable fast path of readReg: a plain register read
// when no load-use stall is pending and restore validation is off. The
// second result is false when the caller must take readReg instead —
// keeping that call out of this function is what keeps it under the
// inlining budget.
func (m *Machine) regFast(r int) (prim.Value, bool) {
	if m.readyAt[r] > m.Counters.Cycles || m.ValidateRestores {
		return prim.Value{}, false
	}
	return m.regs[r], true
}

func (m *Machine) readReg(r int) (prim.Value, error) {
	if ready := m.readyAt[r]; ready > m.Counters.Cycles {
		m.Counters.StallCycles += ready - m.Counters.Cycles
		m.Counters.Cycles = ready
	}
	v := m.regs[r]
	if m.ValidateRestores {
		if _, bad := v.Heap().(poison); bad {
			return prim.Value{}, m.errf("read of destroyed register r%d (missing restore)", r)
		}
	}
	return v, nil
}

func (m *Machine) writeReg(r int, v prim.Value) {
	m.regs[r] = v
	m.readyAt[r] = 0
}

// slotFast is the inlinable fast path of loadSlot: an in-range read
// with counters off needs no per-kind bookkeeping and cannot fail. The
// second result is false when the caller must take loadSlot instead.
func (m *Machine) slotFast(addr int) (prim.Value, bool) {
	if uint(addr) >= uint(len(m.stack)) || m.fine {
		return prim.Value{}, false
	}
	m.Counters.StackReads++
	m.Counters.Cycles += m.cost.MemPenalty
	return m.stack[addr], true
}

func (m *Machine) loadSlot(addr int, kind SlotKind) (prim.Value, error) {
	if addr < 0 || addr >= len(m.stack) {
		return prim.Value{}, m.errf("stack load out of range (%d)", addr)
	}
	m.Counters.StackReads++
	if m.fine {
		m.Counters.ReadsByKind[kind]++
	}
	m.Counters.Cycles += m.cost.MemPenalty
	return m.stack[addr], nil
}

func (m *Machine) storeSlot(addr int, v prim.Value, kind SlotKind) {
	m.ensureStack(addr + 1)
	m.Counters.StackWrites++
	if m.fine {
		m.Counters.WritesByKind[kind]++
	}
	m.Counters.Cycles += m.cost.MemPenalty
	m.stack[addr] = v
}

func (m *Machine) ensureStack(n int) {
	if n <= len(m.stack) {
		return
	}
	grown := make([]prim.Value, max(n, len(m.stack)*2))
	copy(grown, m.stack)
	m.stack = grown
}

func (m *Machine) actTopProc() int {
	if len(m.acts) == 0 {
		return m.prog.MainIndex
	}
	return int(m.acts[len(m.acts)-1].proc)
}

// classifyTop records the finishing activation in the Table 2 breakdown
// (skipped entirely under CountEssential — it only feeds counters).
func (m *Machine) classifyTop() {
	if !m.fine || len(m.acts) == 0 {
		return
	}
	top := m.acts[len(m.acts)-1]
	info := &m.prog.Procs[top.proc]
	pc := &m.Counters.PerProc[top.proc]
	if top.madeCall {
		pc.MadeCalls++
	}
	switch {
	case info.SyntacticLeaf:
		m.Counters.SyntacticLeaves++
	case !top.madeCall:
		m.Counters.NonSyntacticLeaves++
	case info.CallInevitable:
		m.Counters.SyntacticInternal++
	default:
		m.Counters.NonSyntacticInternal++
	}
}

// poisonAfterCall invalidates the caller-save registers (except rv) on
// return from a call.
func (m *Machine) poisonAfterCall() {
	if !m.ValidateRestores {
		return
	}
	CallClobbers(m.cfg).ForEach(func(r int) {
		m.regs[r] = poisonVal
		m.readyAt[r] = 0
	})
}

// poisonAtEntry invalidates everything a fresh activation may not read:
// all registers except ret, cp and the live argument registers.
func (m *Machine) poisonAtEntry(argc int) {
	if !m.ValidateRestores {
		return
	}
	callerSave := m.callerSaveLimit()
	nArgRegs := min(argc, m.cfg.ArgRegs)
	for r := 0; r < callerSave; r++ {
		if r == RegRet || r == RegCP {
			continue
		}
		if r >= m.cfg.ArgReg(0) && r < m.cfg.ArgReg(0)+nArgRegs {
			continue
		}
		m.regs[r] = poisonVal
		m.readyAt[r] = 0
	}
}

// callerSaveLimit returns the first register that is NOT caller-save
// (callee-save registers survive calls).
func (m *Machine) callerSaveLimit() int {
	return m.cfg.CallerSaveLimit()
}

// copyConst deep-copies constants containing mutable structure so each
// evaluation of a quote yields fresh pairs/vectors (matching the
// reference interpreter). Pair cells come from the machine's arena.
func (m *Machine) copyConst(v prim.Value) prim.Value {
	return prim.CopyTree(m.ctx.Arena, v)
}
