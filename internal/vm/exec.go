package vm

// This file is the pre-decoded execution engine: the default hot path
// behind Machine.Run. At first use of a Program it decodes every Instr
// once into a flat array of operand records (dcode) — constants,
// primitive definitions and slot kinds are resolved at decode time, and
// each record carries a dense dispatch code. runThreaded is one table
// switch over that code: every decoded instruction executes in exactly
// one arm, charged by one shared accounting preamble (dispatch cycle
// and fuel). Hot fixed-arity primitives get specialized arms (specPrim).
//
// The engine invariant — enforced by TestEngineEquivalence — is that
// this engine is observably identical to the reference switch loop
// (switchloop.go): same result values, same errors (including
// *FuelError program counters), and byte-for-byte identical Counters
// under CountFull. Simulated cycle accounting is the reproduction's
// measuring stick, so every dispatch arm charges the dispatch cycle,
// memory penalties and load-use stalls in exactly the order the switch
// loop does.

import (
	"repro/internal/prim"
	"repro/internal/sexp"
)

// CounterMode selects the fidelity of the measurement counters.
type CounterMode uint8

const (
	// CountFull (the default) maintains every counter: the per-kind
	// stack-reference breakdown, the Table 2 activation classification,
	// per-procedure statistics, and call/branch counts.
	CountFull CounterMode = iota
	// CountEssential is the counters-off fast path: only the cost
	// model's own outputs are maintained — Instructions (also the fuel
	// meter), Cycles, StallCycles, StackReads and StackWrites. Cycles
	// are byte-for-byte identical to CountFull (mispredict penalties
	// are still charged); everything else reads zero.
	CountEssential
)

// EngineKind selects the execution engine.
type EngineKind uint8

const (
	// EngineThreaded (the default) is the pre-decoded engine in this
	// file.
	EngineThreaded EngineKind = iota
	// EngineSwitch is the reference decode-every-step switch loop
	// (switchloop.go), kept as the semantic baseline the differential
	// test compares against.
	EngineSwitch
)

// xcode is the dense dispatch code runThreaded switches on: one value
// per arm, and one arm per decoded instruction.
type xcode uint8

const (
	xHalt xcode = iota
	xEntry
	xMove
	xLoadConst
	// xLoadConstSlow is OpLoadConst of a mutable constant (copied per
	// load) or of an out-of-range pool index (which panics when it
	// runs, as in the switch loop).
	xLoadConstSlow
	xLoadGlobal
	xStoreGlobal
	xLoadSlot
	xStoreSlot
	xStoreOut
	xPrim
	// xPrimSlow is OpPrim with an out-of-range pool index: it panics
	// when it runs, as in the switch loop.
	xPrimSlow
	xClosure
	xClosurePatch
	xFreeRef
	xJump
	xBranchFalse
	xCall
	xTailCall
	xCallCC
	xReturn
	xUnknown

	// Specialized primitives (see specPrim): OpPrim instructions whose
	// primitive is hot and whose arity is fixed get a dedicated arm
	// that skips the argument buffer and the indirect Fn call. Each arm
	// handles only the dominant type case and falls back to the table
	// implementation (d.def.Fn) for everything else, so behavior —
	// including error messages — is identical to the generic xPrim arm.
	xPCar
	xPCdr
	xPNullP
	xPPairP
	xPZeroP
	xPAdd1
	xPSub1
	xPSymbolP
	xPVectorP
	xPNumberP
	xPBooleanP
	xPCons
	xPEq
	xPAdd
	xPSub
	xPMul
	xPLt
	xPNumEq
	xPVectorRef
	xPStringRef
	xPCharEq
)

// specPrim maps a hot fixed-arity primitive to its specialized dispatch
// code. Operands may be registers or stack slots — the arms read them
// through the same regFast/readOperand pattern as the generic arm.
func specPrim(name sexp.Symbol, regs []int) (xcode, bool) {
	switch len(regs) {
	case 1:
		switch name {
		case "car":
			return xPCar, true
		case "cdr":
			return xPCdr, true
		case "null?":
			return xPNullP, true
		case "pair?":
			return xPPairP, true
		case "zero?":
			return xPZeroP, true
		case "1+", "add1":
			return xPAdd1, true
		case "1-", "sub1":
			return xPSub1, true
		case "symbol?":
			return xPSymbolP, true
		case "vector?":
			return xPVectorP, true
		case "number?":
			return xPNumberP, true
		case "boolean?":
			return xPBooleanP, true
		}
	case 2:
		switch name {
		case "cons":
			return xPCons, true
		case "eq?", "eqv?":
			return xPEq, true
		case "+":
			return xPAdd, true
		case "-":
			return xPSub, true
		case "*":
			return xPMul, true
		case "<":
			return xPLt, true
		case "=":
			return xPNumEq, true
		case "vector-ref":
			return xPVectorRef, true
		case "string-ref":
			return xPStringRef, true
		case "char=?":
			return xPCharEq, true
		}
	}
	return 0, false
}

// dcode is one pre-decoded instruction: the dispatch code plus its
// operands, resolved as far as immutability allows at decode time.
// (An experiment that shrank the record to one cache line by moving
// operand lists to a side table and type-punning val/def measurably
// regressed: the extra indirections in the hot prim arm cost more than
// the smaller record saved.)
type dcode struct {
	x       xcode
	op      Op
	kind    SlotKind
	predict int8
	a, b, c int
	// regs aliases Instr.Regs (OpPrim/OpClosure operand lists).
	regs []int
	// val is the pre-resolved constant for immutable OpLoadConst.
	val prim.Value
	// def is the pre-resolved primitive for OpPrim.
	def *prim.Def
}

// engineCode is a Program's decoded form, built once and shared by
// every Machine running the program (it is immutable after build, like
// the Program itself).
type engineCode struct {
	code []dcode
}

// engine returns the Program's decoded form, building it on first use.
func (p *Program) engine() *engineCode {
	p.engOnce.Do(func() { p.eng = buildEngine(p) })
	return p.eng
}

func buildEngine(p *Program) *engineCode {
	eng := &engineCode{code: make([]dcode, len(p.Code))}
	for pc := range p.Code {
		decodeOne(p, &p.Code[pc], &eng.code[pc])
	}
	return eng
}

// decodeOne lowers one Instr to its decoded form. Pool references are
// resolved only when they are in range; out-of-range references get a
// slow arm so the failure (a panic, as in the switch loop) happens
// at execution time, not at decode time — a program whose corrupt
// instruction is never reached must run identically on both engines.
func decodeOne(p *Program, in *Instr, d *dcode) {
	d.op = in.Op
	d.a, d.b, d.c = in.A, in.B, in.C
	d.kind = in.Kind
	d.predict = in.Predict
	d.regs = in.Regs
	switch in.Op {
	case OpHalt:
		d.x = xHalt
	case OpEntry:
		d.x = xEntry
	case OpMove:
		d.x = xMove
	case OpLoadConst:
		if in.B >= 0 && in.B < len(p.Consts) && in.B < len(p.ConstMutable) && !p.ConstMutable[in.B] {
			d.val = p.Consts[in.B]
			d.x = xLoadConst
		} else {
			d.x = xLoadConstSlow
		}
	case OpLoadGlobal:
		d.x = xLoadGlobal
	case OpStoreGlobal:
		d.x = xStoreGlobal
	case OpLoadSlot:
		d.x = xLoadSlot
	case OpStoreSlot:
		d.x = xStoreSlot
	case OpStoreOut:
		d.x = xStoreOut
	case OpPrim:
		if in.B >= 0 && in.B < len(p.Prims) {
			d.def = p.Prims[in.B]
			d.x = xPrim
			if x, ok := specPrim(d.def.Name, in.Regs); ok {
				// Repurpose b and c (the generic arm never reads them)
				// as the argument registers.
				d.x = x
				d.b = in.Regs[0]
				if len(in.Regs) == 2 {
					d.c = in.Regs[1]
				}
			}
		} else {
			d.x = xPrimSlow
		}
	case OpClosure:
		d.x = xClosure
	case OpClosurePatch:
		d.x = xClosurePatch
	case OpFreeRef:
		d.x = xFreeRef
	case OpJump:
		d.x = xJump
	case OpBranchFalse:
		d.x = xBranchFalse
	case OpCall:
		d.x = xCall
	case OpTailCall:
		d.x = xTailCall
	case OpCallCC:
		d.x = xCallCC
	case OpReturn:
		d.x = xReturn
	default:
		d.x = xUnknown
	}
}

// runThreaded is the pre-decoded dispatch loop. Every arm mirrors the
// corresponding case of the reference loop exactly (switchloop.go is
// the semantic baseline — change it first), reading resolved operands
// from the dcode instead of re-decoding the Instr.
func (m *Machine) runThreaded() (prim.Value, error) {
	code := m.prog.engine().code
	c := &m.Counters
	// The fuel compare runs every instruction; folding "no limit" into
	// a maximal budget makes it a single always-taken-false branch.
	limit := m.MaxSteps
	if limit <= 0 {
		limit = int64(^uint64(0) >> 1)
	}
	for {
		// pc is read into a local once per iteration: the helpers the
		// arms call may reassign m.pc, so without the local the
		// compiler must reload it (and re-check bounds) at every use.
		pc := m.pc
		if uint(pc) >= uint(len(code)) {
			return prim.Value{}, m.errf("pc out of range")
		}
		d := &code[pc]
		c.Instructions++
		c.Cycles++
		if c.Instructions > limit {
			return prim.Value{}, &FuelError{Budget: m.MaxSteps, PC: pc}
		}
		switch d.x {
		case xHalt:
			return m.readReg(RegRV)

		case xEntry:
			if m.argc != d.a {
				name := m.prog.Procs[m.actTopProc()].Name
				return prim.Value{}, m.errf("%s expects %d arguments, got %d", name, d.a, m.argc)
			}
			m.ensureStack(m.fp + d.b + 16)
			m.pc++

		case xMove:
			v, ok := m.regFast(d.b)
			if !ok {
				var err error
				if v, err = m.readReg(d.b); err != nil {
					return prim.Value{}, err
				}
			}
			m.writeReg(d.a, v)
			m.pc++

		case xLoadConst:
			m.writeReg(d.a, d.val)
			m.pc++

		case xLoadConstSlow:
			v := m.prog.Consts[d.b]
			if m.prog.ConstMutable[d.b] {
				v = m.copyConst(v)
			}
			m.writeReg(d.a, v)
			m.pc++

		case xLoadGlobal:
			v := m.globals[d.b]
			if v.IsNone() {
				return prim.Value{}, m.errf("unbound global %s", m.prog.GlobalNames[d.b])
			}
			m.writeReg(d.a, v)
			m.pc++

		case xStoreGlobal:
			v, ok := m.regFast(d.a)
			if !ok {
				var err error
				if v, err = m.readReg(d.a); err != nil {
					return prim.Value{}, err
				}
			}
			m.globals[d.b] = v
			m.pc++

		case xLoadSlot:
			v, ok := m.slotFast(m.fp + d.b)
			if !ok {
				var err error
				if v, err = m.loadSlot(m.fp+d.b, d.kind); err != nil {
					return prim.Value{}, err
				}
			}
			m.regs[d.a] = v
			m.readyAt[d.a] = c.Cycles + m.cost.LoadLatency
			m.pc++

		case xStoreSlot:
			v, ok := m.regFast(d.a)
			if !ok {
				var err error
				if v, err = m.readReg(d.a); err != nil {
					return prim.Value{}, err
				}
			}
			m.storeSlot(m.fp+d.b, v, d.kind)
			m.pc++

		case xStoreOut:
			v, ok := m.regFast(d.a)
			if !ok {
				var err error
				if v, err = m.readReg(d.a); err != nil {
					return prim.Value{}, err
				}
			}
			m.storeSlot(m.fp+d.c+d.b, v, d.kind)
			m.pc++

		case xPrim:
			// applyPrim (machine.go), hand-inlined: it is far past the
			// compiler's inlining budget and the call overhead is
			// measurable at this frequency. Keep the two in step.
			regs := d.regs
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
					return prim.Value{}, err
				}
				args[i] = v
			}
			if m.fine {
				c.PrimInstrs++
			}
			res, err := d.def.Fn(m.ctx, args)
			if err != nil {
				return prim.Value{}, err
			}
			m.writeReg(d.a, res)
			m.pc++

		case xPrimSlow:
			if err := m.applyPrim(d.a, m.prog.Prims[d.b], d.regs); err != nil {
				return prim.Value{}, err
			}
			m.pc++

		// Specialized primitive arms. Each mirrors the generic xPrim
		// arm exactly — read the argument registers in order (with the
		// same stall accounting), count the prim, produce the result,
		// write it back — but computes the dominant type case inline
		// and falls back to the table implementation (primFallback*)
		// for every other case, including errors. A None (zero) result
		// marks the fallback case: no primitive returns None, since
		// predicates yield booleans and car/cdr can only yield values
		// a program put into a pair.
		case xPCar, xPCdr, xPNullP, xPPairP, xPZeroP, xPAdd1, xPSub1,
			xPSymbolP, xPVectorP, xPNumberP, xPBooleanP:
			var v prim.Value
			var ok bool
			if d.b >= 0 {
				v, ok = m.regFast(d.b)
			}
			if !ok {
				var err error
				if v, err = m.readOperand(d.b); err != nil {
					return prim.Value{}, err
				}
			}
			if m.fine {
				c.PrimInstrs++
			}
			var res prim.Value
			switch d.x {
			case xPCar:
				if p, isPair := v.Pair(); isPair {
					res = p.Car
				}
			case xPCdr:
				if p, isPair := v.Pair(); isPair {
					res = p.Cdr
				}
			case xPNullP:
				res = prim.BoolV(v.IsEmpty())
			case xPPairP:
				_, isPair := v.Pair()
				res = prim.BoolV(isPair)
			case xPZeroP:
				if n, isFix := v.Fixnum(); isFix {
					res = prim.BoolV(n == 0)
				}
			case xPAdd1:
				if n, isFix := v.Fixnum(); isFix {
					res = prim.FixV(n + 1)
				}
			case xPSub1:
				if n, isFix := v.Fixnum(); isFix {
					res = prim.FixV(n - 1)
				}
			case xPSymbolP:
				_, isSym := v.Symbol()
				res = prim.BoolV(isSym)
			case xPVectorP:
				_, isVec := v.Vector()
				res = prim.BoolV(isVec)
			case xPNumberP:
				res = prim.BoolV(v.IsNumber())
			case xPBooleanP:
				res = prim.BoolV(v.IsBool())
			}
			if res.IsNone() {
				var err error
				if res, err = m.primFallback1(d, v); err != nil {
					return prim.Value{}, err
				}
			}
			m.writeReg(d.a, res)
			m.pc++

		case xPCons, xPEq, xPAdd, xPSub, xPMul, xPLt, xPNumEq,
			xPVectorRef, xPStringRef, xPCharEq:
			var x, y prim.Value
			var ok bool
			if d.b >= 0 {
				x, ok = m.regFast(d.b)
			}
			if !ok {
				var err error
				if x, err = m.readOperand(d.b); err != nil {
					return prim.Value{}, err
				}
			}
			ok = false
			if d.c >= 0 {
				y, ok = m.regFast(d.c)
			}
			if !ok {
				var err error
				if y, err = m.readOperand(d.c); err != nil {
					return prim.Value{}, err
				}
			}
			if m.fine {
				c.PrimInstrs++
			}
			var res prim.Value
			switch d.x {
			case xPCons:
				res = m.ctx.Cons(x, y)
			case xPEq:
				res = prim.BoolV(prim.Eqv(x, y))
			case xPVectorRef:
				if vec, okv := x.Vector(); okv {
					if i, oki := y.Fixnum(); oki && i >= 0 && int(i) < len(vec.Items) {
						res = vec.Items[i]
					}
				}
			case xPStringRef:
				if str, oks := x.Str(); oks {
					if i, oki := y.Fixnum(); oki && i >= 0 && int(i) < len(str) {
						res = prim.CharV(rune(str[i]))
					}
				}
			case xPCharEq:
				if xc, okx := x.Char(); okx {
					if yc, oky := y.Char(); oky {
						res = prim.BoolV(xc == yc)
					}
				}
			default:
				if xn, okx := x.Fixnum(); okx {
					if yn, oky := y.Fixnum(); oky {
						switch d.x {
						case xPAdd:
							res = prim.FixV(xn + yn)
						case xPSub:
							res = prim.FixV(xn - yn)
						case xPMul:
							res = prim.FixV(xn * yn)
						case xPLt:
							res = prim.BoolV(xn < yn)
						case xPNumEq:
							res = prim.BoolV(xn == yn)
						}
					}
				}
			}
			if res.IsNone() {
				var err error
				if res, err = m.primFallback2(d, x, y); err != nil {
					return prim.Value{}, err
				}
			}
			m.writeReg(d.a, res)
			m.pc++

		case xClosure:
			cl := m.ctx.AllocClosure(d.b, len(d.regs))
			for i, r := range d.regs {
				v, err := m.readOperand(r)
				if err != nil {
					return prim.Value{}, err
				}
				cl.Free[i] = v
			}
			m.writeReg(d.a, prim.ObjV(cl))
			m.pc++

		case xClosurePatch:
			cv, err := m.readReg(d.a)
			if err != nil {
				return prim.Value{}, err
			}
			cl, ok := cv.Heap().(*Closure)
			if !ok {
				return prim.Value{}, m.errf("closure-patch of non-closure")
			}
			v, err := m.readReg(d.c)
			if err != nil {
				return prim.Value{}, err
			}
			cl.Free[d.b] = v
			m.pc++

		case xFreeRef:
			cpv, err := m.readReg(RegCP)
			if err != nil {
				return prim.Value{}, err
			}
			cl, ok := cpv.Heap().(*Closure)
			if !ok {
				return prim.Value{}, m.errf("free-ref with non-closure cp")
			}
			m.writeReg(d.a, cl.Free[d.b])
			m.pc++

		case xJump:
			m.pc = d.a

		case xBranchFalse:
			v, ok := m.regFast(d.a)
			if !ok {
				var err error
				if v, err = m.readReg(d.a); err != nil {
					return prim.Value{}, err
				}
			}
			taken := !prim.Truthy(v)
			if m.fine {
				c.Branches++
				if d.predict != 0 {
					c.PredictedBranches++
					predictedTaken := d.predict > 0
					if taken != predictedTaken {
						c.Mispredicts++
						c.Cycles += m.cost.BranchMispredict
					}
				}
			} else if d.predict != 0 && taken != (d.predict > 0) {
				// Counters are off, but the mispredict penalty is part
				// of the cycle accounting and must still be charged.
				c.Cycles += m.cost.BranchMispredict
			}
			if taken {
				m.pc = d.b
			} else {
				m.pc++
			}

		case xCall:
			if err := m.call(d.a, m.fp+d.b, false); err != nil {
				return prim.Value{}, err
			}

		case xTailCall:
			if err := m.call(d.a, m.fp, true); err != nil {
				return prim.Value{}, err
			}

		case xCallCC:
			if err := m.callCC(d.b); err != nil {
				return prim.Value{}, err
			}

		case xReturn:
			rv, rok := m.regFast(RegRet)
			if !rok {
				var err error
				if rv, err = m.readReg(RegRet); err != nil {
					return prim.Value{}, err
				}
			}
			rpc, rfp, ok := retTarget(rv)
			if !ok {
				return prim.Value{}, m.errf("return with corrupt ret register (%s)", prim.WriteString(rv))
			}
			if len(m.acts) == 0 {
				return prim.Value{}, m.errf("return with empty activation stack")
			}
			m.classifyTop()
			m.acts = m.acts[:len(m.acts)-1]
			m.pc = rpc
			m.fp = rfp
			m.poisonAfterCall()

		default:
			return prim.Value{}, m.errf("unknown opcode %d", d.op)
		}
	}
}

// primFallback1 and primFallback2 route a specialized-arm miss to the
// primitive's table implementation with the already-read arguments, so
// the result — value or error — is exactly the generic arm's.
func (m *Machine) primFallback1(d *dcode, v prim.Value) (prim.Value, error) {
	if cap(m.argbuf) < 1 {
		m.argbuf = make([]prim.Value, 4)
	}
	args := m.argbuf[:1]
	args[0] = v
	return d.def.Fn(m.ctx, args)
}

func (m *Machine) primFallback2(d *dcode, x, y prim.Value) (prim.Value, error) {
	if cap(m.argbuf) < 2 {
		m.argbuf = make([]prim.Value, 4)
	}
	args := m.argbuf[:2]
	args[0], args[1] = x, y
	return d.def.Fn(m.ctx, args)
}
