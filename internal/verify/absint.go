package verify

import (
	"fmt"
	"math/bits"

	"repro/internal/dataflow"
	"repro/internal/vm"
)

// maxArgc bounds argument counts for structural prescanning: beyond it
// an operand is reported as malformed rather than sized for. Frames
// are bounded by vm.MaxFrame.
const maxArgc = 1024

// maxPasses bounds the fixpoint. Procedure bodies are DAGs (all jumps
// forward), so one increasing-address pass normally converges; the cap
// only trips on malformed code, which is then reported Unverifiable.
const maxPasses = dataflow.DefaultMaxPasses

// procVerifier verifies one procedure's extent.
type procVerifier struct {
	p    *vm.Program
	cfg  vm.Config
	info vm.ProcInfo
	// start/end delimit the body; frame is the frame size in slots,
	// nOut the outgoing-argument slots referenced, stackParams the
	// incoming stack-argument slots.
	start, end  int
	frame       int
	nOut        int
	stackParams int
	nRegs       int

	// syms is this procedure's own join-symbol table, so no other
	// procedure's joins count against its cap.
	syms *symtab
	// eff caches per-instruction effects (indexed pc-start).
	eff []vm.Effects
	// g is the CFG over eff, for the fixpoints and witness searches.
	g *dataflow.Graph
	// pairsAfter is the backward restore-pair analysis result at each
	// call (indexed pc-start, nil elsewhere): the save/restore
	// obligations live immediately after it, a bitset over pairList.
	pairsAfter [][]uint64
	pairList   []restorePair
	// undefOuts is the outgoing-slot cells a call leaves behind, shared
	// by every call's transfer.
	undefOuts dataflow.Cells[absVal]
	// recs indexes the program's shuffle records starting in this
	// procedure. shuffles are those checked during the replay, and
	// shufflesAt indexes them by start and call pc.
	recs       []int
	shuffles   []pendingShuffle
	shufflesAt map[int][]int

	entryCS []int32
	seen    map[violationKey]bool
	viol    *[]Violation
}

// restorePair is a (register, slot) obligation generated by a restore:
// any call it crosses must be dominated by a matching save.
type restorePair struct {
	reg  int
	slot int
}

type violationKey struct {
	kind Kind
	pc   int
	reg  int
	slot int
}

func newProcVerifier(p *vm.Program, ext dataflow.Extent) *procVerifier {
	return &procVerifier{
		p:     p,
		recs:  ext.Shuffles,
		cfg:   p.Config,
		info:  ext.Info,
		start: ext.Start,
		end:   ext.End,
		nRegs: p.Config.NumRegs(),
		syms:  newSymtab(),
		seen:  map[violationKey]bool{},
	}
}

func (pv *procVerifier) report(v Violation) {
	key := violationKey{kind: v.Kind, pc: v.PC, reg: v.Reg, slot: v.Slot}
	if pv.seen[key] {
		return
	}
	pv.seen[key] = true
	v.Proc = pv.info.Name
	if v.PC >= 0 && v.PC < len(pv.p.Code) {
		v.Op = pv.p.Code[v.PC].Op
		v.Instr = pv.p.FormatInstr(pv.p.Code[v.PC])
	}
	*pv.viol = append(*pv.viol, v)
}

// run verifies the procedure, appending violations to out.
func (pv *procVerifier) run(out *[]Violation) {
	pv.viol = out
	if pv.end <= pv.start {
		return
	}
	if !pv.prescan() {
		return // structurally broken; dataflow would be meaningless
	}
	pv.g = dataflow.GraphFromEffects(pv.start, pv.end, pv.eff)
	pv.restorePairs()
	pv.checkPass(pv.fixpoint())
}

// prescan performs the state-independent structural checks and caches
// instruction effects. It returns false when the body is too malformed
// for dataflow (unknown opcodes, out-of-range operands or jumps).
func (pv *procVerifier) prescan() bool {
	p, cfg := pv.p, pv.cfg
	entry := p.Code[pv.start]
	structural := true
	bad := func(pc int, kind Kind, reg, slot int, format string, args ...any) {
		pv.report(Violation{Kind: kind, PC: pc, Reg: reg, Slot: slot, CallPC: -1, Msg: fmt.Sprintf(format, args...)})
		structural = false
	}

	if entry.Op != vm.OpEntry {
		bad(pv.start, BadOperand, -1, -1, "procedure does not begin with entry")
		return false
	}
	pv.frame = entry.B
	if pv.frame < 0 || pv.frame > vm.MaxFrame {
		bad(pv.start, BadFrame, -1, -1, "frame size %d out of range", pv.frame)
		return false
	}
	pv.stackParams = pv.info.NArgs - cfg.ArgRegs
	if pv.stackParams < 0 {
		pv.stackParams = 0
	}
	if entry.A != pv.info.NArgs {
		// Arity disagreement is reportable but does not break dataflow.
		pv.report(Violation{Kind: BadArity, PC: pv.start, Reg: -1, Slot: -1, CallPC: -1,
			Msg: fmt.Sprintf("entry declares %d args, procedure metadata says %d", entry.A, pv.info.NArgs)})
	}
	if pv.frame < pv.stackParams {
		bad(pv.start, BadFrame, -1, -1, "frame size %d below %d incoming stack parameters", pv.frame, pv.stackParams)
	}

	checkReg := func(pc, r int) {
		if r < 0 || r >= pv.nRegs {
			bad(pc, BadOperand, r, -1, "register r%d outside configuration (%d registers)", r, pv.nRegs)
		}
	}
	checkSlot := func(pc, s int) {
		if s < 0 || s >= pv.frame {
			bad(pc, BadFrame, -1, s, "frame slot %d outside frame of %d", s, pv.frame)
		}
	}
	noteOut := func(o int) {
		if o+1 > pv.nOut {
			pv.nOut = o + 1
		}
	}

	pv.eff = make([]vm.Effects, pv.end-pv.start)
	for pc := pv.start; pc < pv.end; pc++ {
		in := p.Code[pc]
		e, ok := in.InstrEffects(cfg)
		if !ok {
			bad(pc, BadOperand, -1, -1, "unknown opcode %d", in.Op)
			continue
		}
		pv.eff[pc-pv.start] = e

		switch in.Op {
		case vm.OpEntry:
			if pc != pv.start {
				bad(pc, BadOperand, -1, -1, "entry in procedure body")
			}
		case vm.OpMove:
			checkReg(pc, in.A)
			checkReg(pc, in.B)
		case vm.OpLoadConst:
			checkReg(pc, in.A)
			if in.B < 0 || in.B >= len(p.Consts) {
				bad(pc, BadOperand, -1, -1, "constant %d outside pool (%d)", in.B, len(p.Consts))
			}
		case vm.OpLoadGlobal, vm.OpStoreGlobal:
			checkReg(pc, in.A)
			if in.B < 0 || in.B >= len(p.GlobalNames) {
				bad(pc, BadOperand, -1, -1, "global %d outside table (%d)", in.B, len(p.GlobalNames))
			}
		case vm.OpLoadSlot, vm.OpStoreSlot:
			checkReg(pc, in.A)
			checkSlot(pc, in.B)
		case vm.OpStoreOut:
			checkReg(pc, in.A)
			if in.B < 0 || in.B > maxArgc {
				bad(pc, BadOperand, -1, in.B, "outgoing slot %d out of range", in.B)
			} else {
				noteOut(in.B)
			}
			if in.C != pv.frame {
				pv.report(Violation{Kind: BadFrame, PC: pc, Reg: -1, Slot: in.B, CallPC: -1,
					Msg: fmt.Sprintf("store-out frame operand %d, frame is %d", in.C, pv.frame)})
			}
		case vm.OpPrim, vm.OpClosure:
			checkReg(pc, in.A)
			for _, r := range in.Regs {
				if vm.IsSlotOperand(r) {
					checkSlot(pc, vm.SlotOperand(r))
				} else {
					checkReg(pc, r)
				}
			}
			if in.Op == vm.OpPrim && (in.B < 0 || in.B >= len(p.Prims)) {
				bad(pc, BadOperand, -1, -1, "primitive %d outside pool (%d)", in.B, len(p.Prims))
			}
			if in.Op == vm.OpClosure && (in.B < 0 || in.B >= len(p.Procs)) {
				bad(pc, BadOperand, -1, -1, "procedure %d outside table (%d)", in.B, len(p.Procs))
			}
		case vm.OpClosurePatch:
			checkReg(pc, in.A)
			checkReg(pc, in.C)
		case vm.OpFreeRef:
			checkReg(pc, in.A)
			if in.B < 0 || in.B >= pv.info.NFree {
				bad(pc, BadOperand, -1, -1, "free variable %d outside closure (%d free)", in.B, pv.info.NFree)
			}
		case vm.OpBranchFalse:
			checkReg(pc, in.A)
		case vm.OpCall, vm.OpCallCC, vm.OpTailCall:
			if in.A < 0 || in.A > maxArgc {
				bad(pc, BadOperand, -1, -1, "argument count %d out of range", in.A)
				continue
			}
			for _, o := range e.ReadOuts {
				noteOut(o)
			}
			if in.Op == vm.OpTailCall {
				for _, s := range e.ReadSlots {
					checkSlot(pc, s)
				}
			} else if in.B != pv.frame {
				pv.report(Violation{Kind: BadFrame, PC: pc, Reg: -1, Slot: -1, CallPC: -1,
					Msg: fmt.Sprintf("call frame operand %d, frame is %d", in.B, pv.frame)})
			}
		}

		// Control-flow edges must stay inside the body.
		if e.Jump >= 0 && (e.Jump < pv.start || e.Jump >= pv.end) {
			bad(pc, BadJump, -1, -1, "jump target %d outside procedure [%d,%d)", e.Jump, pv.start, pv.end)
		}
		if e.FallsThrough && pc+1 >= pv.end {
			bad(pc, BadJump, -1, -1, "control falls off the procedure end")
		}
	}
	return structural
}

// pairsProblem is the backward may-analysis over restore pairs: a
// restore generates its pair, any write to the pair's slot kills it.
// States are bitsets over pv.pairList.
type pairsProblem struct {
	pv    *procVerifier
	words int
	genAt []int // pair id + 1, 0 = none
	// slotPairs lists, per frame slot, the pairs restoring from it.
	slotPairs [][]int
}

func (pp pairsProblem) New() []uint64 { return make([]uint64, pp.words) }

func (pp pairsProblem) Merge(dst, src []uint64) []uint64 {
	for w := range dst {
		dst[w] |= src[w]
	}
	return dst
}

// Transfer computes gen ∪ (out \ kill).
func (pp pairsProblem) Transfer(pc int, out []uint64) []uint64 {
	pv := pp.pv
	for _, s := range pv.eff[pc-pv.start].WriteSlots {
		for _, id := range pp.slotPairs[s] {
			out[id/64] &^= 1 << (id % 64)
		}
	}
	if id := pp.genAt[pc-pv.start]; id > 0 {
		out[(id-1)/64] |= 1 << ((id - 1) % 64)
	}
	return out
}

func (pp pairsProblem) Eq(a, b []uint64) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}

// restorePairs runs the backward may-analysis and keeps its result at
// each call: pairsAfter[pc] holds the (register, slot) pairs for which
// some downstream path restores the register from the slot with no
// intervening write to the slot. A call with such a pair live after it
// relies on the matching save.
func (pv *procVerifier) restorePairs() {
	n := pv.end - pv.start
	ids := map[restorePair]int{}
	genAt := make([]int, n) // pair id + 1, 0 = none
	for pc := pv.start; pc < pv.end; pc++ {
		in := pv.p.Code[pc]
		if in.Op == vm.OpLoadSlot && in.Kind == vm.KindRestore {
			pr := restorePair{reg: in.A, slot: in.B}
			id, ok := ids[pr]
			if !ok {
				id = len(pv.pairList)
				ids[pr] = id
				pv.pairList = append(pv.pairList, pr)
			}
			genAt[pc-pv.start] = id + 1
		}
	}
	pv.pairsAfter = make([][]uint64, n)
	if len(pv.pairList) == 0 {
		return
	}
	pp := pairsProblem{pv: pv, words: (len(pv.pairList) + 63) / 64, genAt: genAt, slotPairs: make([][]int, pv.frame)}
	for id, pr := range pv.pairList {
		pp.slotPairs[pr.slot] = append(pp.slotPairs[pr.slot], id)
	}
	dataflow.SolveBackward[[]uint64](pv.g, pp, maxPasses).Replay(func(pc int, out []uint64) []uint64 {
		if op := pv.p.Code[pc].Op; op == vm.OpCall || op == vm.OpCallCC {
			pv.pairsAfter[pc-pv.start] = append([]uint64(nil), out...)
		}
		return pp.Transfer(pc, out)
	})
}

// entryState seeds the abstract state the calling convention
// establishes: return address, closure pointer, register parameters,
// callee-saves and incoming stack parameters are defined; everything
// else is undefined.
func (pv *procVerifier) entryState() state {
	undef := absVal{k: aUndef}
	pv.undefOuts = dataflow.NewCells(pv.nOut, undef)
	s := state{
		regs:  make([]absVal, pv.nRegs),
		slots: dataflow.NewCells(pv.frame, undef),
		outs:  pv.undefOuts.Clone(),
		saved: make([]savedCopy, pv.nRegs),
	}
	for i := range s.regs {
		s.regs[i] = undef
	}
	s.regs[vm.RegRet] = absVal{k: aDef, sym: symRet}
	s.regs[vm.RegCP] = absVal{k: aDef, sym: symCP}
	nArgRegs := pv.info.NArgs
	if nArgRegs > pv.cfg.ArgRegs {
		nArgRegs = pv.cfg.ArgRegs
	}
	for i := 0; i < nArgRegs; i++ {
		s.regs[pv.cfg.ArgReg(i)] = absVal{k: aDef, sym: symArg0 - int32(i)}
	}
	pv.entryCS = pv.entryCS[:0]
	for i := 0; i < pv.cfg.CalleeSaveRegs; i++ {
		sym := symCS0 - int32(i)
		s.regs[pv.cfg.CalleeSaveReg(i)] = absVal{k: aDef, sym: sym}
		pv.entryCS = append(pv.entryCS, sym)
	}
	for k := 0; k < pv.stackParams && k < pv.frame; k++ {
		s.slots.Set(k, absVal{k: aDef, sym: symStackParam - int32(k)})
	}
	return s
}

// absintProblem adapts the verifier's abstract interpretation to the
// generic forward engine: Entry seeds the calling convention, Transfer
// is step without checking, Join is the interning lattice join.
type absintProblem struct{ pv *procVerifier }

func (ap absintProblem) Entry() state { return ap.pv.entryState() }

func (ap absintProblem) Transfer(pc int, s state) state {
	ap.pv.step(&s, pc, false)
	return s
}

func (ap absintProblem) Clone(s state) state { return s.clone() }

func (ap absintProblem) Join(dst, src state) (state, bool) {
	ch := ap.pv.syms.joinInto(&dst, &src)
	return dst, ch
}

// fixpoint solves the abstract interpretation for the in-state of every
// reachable block. Bodies are forward DAGs, so increasing-address
// passes converge quickly; a pass cap reports Unverifiable otherwise.
func (pv *procVerifier) fixpoint() *dataflow.Forward[state] {
	sol := dataflow.SolveForward[state](pv.g, absintProblem{pv}, maxPasses)
	if !sol.Converged {
		pv.report(Violation{Kind: Unverifiable, PC: pv.start, Reg: -1, Slot: -1, CallPC: -1,
			Msg: fmt.Sprintf("fixpoint did not converge in %d passes", maxPasses)})
	}
	return sol
}

// checkPass replays every reachable instruction once against its fixed
// in-state with checking enabled, checking each recorded shuffle as
// the replay passes its start and its call.
func (pv *procVerifier) checkPass(sol *dataflow.Forward[state]) {
	pv.collectShuffles()
	sol.Replay(func(pc int, s state) state {
		for _, i := range pv.shufflesAt[pc] {
			pv.shuffleAt(&pv.shuffles[i], pc, &s)
		}
		pv.step(&s, pc, true)
		return s
	})
}

// defSym names the value defined by the instruction at pc.
func defSym(pc int) int32 { return int32(pc + 1) }

// step applies the instruction at pc to s. With check set it also
// reports read-before-define, clobbered-read, save/restore and
// exit-integrity violations against the incoming state.
func (pv *procVerifier) step(s *state, pc int, check bool) {
	in := pv.p.Code[pc]

	readReg := func(r int, what string) absVal {
		v := s.regs[r]
		if !check {
			return v
		}
		switch v.k {
		case aUndef:
			pv.report(Violation{Kind: UndefinedRegister, PC: pc, Reg: r, Slot: -1, CallPC: -1,
				Msg:     fmt.Sprintf("%s reads r%d, which no path has defined", what, r),
				Witness: pv.witnessReg(pc, r, aUndef)})
		case aClob:
			pv.report(Violation{Kind: MissingRestore, PC: pc, Reg: r, Slot: -1, CallPC: int(v.sym),
				Msg:     fmt.Sprintf("%s reads r%d, destroyed by the call at pc %d and not restored", what, r, v.sym),
				Witness: pv.witnessReg(pc, r, aClob)})
		}
		return v
	}
	readSlot := func(sl int, what string) absVal {
		v := s.slots.Get(sl)
		if check && v.k == aUndef {
			kind := UndefinedSlot
			msg := fmt.Sprintf("%s reads fp[%d], which no path has written", what, sl)
			if in.Op == vm.OpLoadSlot && in.Kind == vm.KindRestore {
				kind = MissingSave
				msg = fmt.Sprintf("restore of r%d reads fp[%d], but no save reaches it on every path", in.A, sl)
			}
			pv.report(Violation{Kind: kind, PC: pc, Reg: -1, Slot: sl, CallPC: -1,
				Msg: msg, Witness: pv.witnessSlot(pc, sl)})
		}
		return v
	}
	readOut := func(o int, what string) {
		if v := s.outs.Get(o); check && v.k != aDef && v.k != aTop {
			pv.report(Violation{Kind: UndefinedSlot, PC: pc, Reg: -1, Slot: o, CallPC: -1,
				Msg:     fmt.Sprintf("%s reads outgoing slot %d, which no path has written since the last call", what, o),
				Witness: pv.witnessOut(pc, o)})
		}
	}
	applyCall := func() {
		vm.CallClobbers(pv.cfg).ForEach(func(r int) {
			s.regs[r] = absVal{k: aClob, sym: int32(pc)}
		})
		s.regs[vm.RegRV] = absVal{k: aDef, sym: defSym(pc)}
		s.outs = pv.undefOuts.Clone()
	}
	checkExit := func(what string) {
		if !check {
			return
		}
		if v := s.regs[vm.RegRet]; v.k == aDef && v.sym != symRet {
			pv.report(Violation{Kind: BadReturn, PC: pc, Reg: vm.RegRet, Slot: -1, CallPC: -1,
				Msg: fmt.Sprintf("%s with ret holding a value other than the entry return address", what)})
		}
		for i := 0; i < pv.cfg.CalleeSaveRegs; i++ {
			r := pv.cfg.CalleeSaveReg(i)
			if v := s.regs[r]; v.k == aDef && v.sym != pv.entryCS[i] {
				pv.report(Violation{Kind: CalleeSaveClobbered, PC: pc, Reg: r, Slot: -1, CallPC: -1,
					Msg: fmt.Sprintf("%s with callee-save r%d not holding its entry value", what, r)})
			}
		}
	}

	switch in.Op {
	case vm.OpEntry:
		// Checked structurally in prescan.
	case vm.OpMove:
		v := readReg(in.B, "move")
		s.regs[in.A] = v
	case vm.OpLoadConst, vm.OpLoadGlobal:
		s.regs[in.A] = absVal{k: aDef, sym: defSym(pc)}
	case vm.OpStoreGlobal:
		readReg(in.A, "global store")
	case vm.OpLoadSlot:
		v := readSlot(in.B, "load")
		if v.k == aUndef {
			v = absVal{k: aTop} // reported; avoid cascading noise
		}
		s.regs[in.A] = v
	case vm.OpStoreSlot:
		v := readReg(in.A, "store")
		s.slots.Set(in.B, v)
		if in.Kind == vm.KindSave {
			s.saved[in.A] = savedCopy{ok: v.k == aDef, slot: int32(in.B), sym: v.sym}
		}
	case vm.OpStoreOut:
		v := readReg(in.A, "store-out")
		s.outs.Set(in.B, v)
	case vm.OpPrim, vm.OpClosure:
		what := "primitive"
		if in.Op == vm.OpClosure {
			what = "closure capture"
		}
		for _, r := range in.Regs {
			if vm.IsSlotOperand(r) {
				readSlot(vm.SlotOperand(r), what)
			} else {
				readReg(r, what)
			}
		}
		s.regs[in.A] = absVal{k: aDef, sym: defSym(pc)}
	case vm.OpClosurePatch:
		readReg(in.A, "closure patch")
		readReg(in.C, "closure patch")
	case vm.OpFreeRef:
		readReg(vm.RegCP, "free-variable load")
		s.regs[in.A] = absVal{k: aDef, sym: defSym(pc)}
	case vm.OpJump:
		// No state effect.
	case vm.OpBranchFalse:
		readReg(in.A, "branch")
	case vm.OpCall, vm.OpCallCC:
		what := "call"
		if in.Op == vm.OpCallCC {
			what = "call/cc"
		} else {
			nArgRegs := in.A
			if nArgRegs > pv.cfg.ArgRegs {
				nArgRegs = pv.cfg.ArgRegs
			}
			for i := 0; i < nArgRegs; i++ {
				readReg(pv.cfg.ArgReg(i), "argument of call")
			}
			for _, o := range pv.eff[pc-pv.start].ReadOuts {
				readOut(o, "stack argument of call")
			}
		}
		readReg(vm.RegCP, what)
		if check {
			pv.checkSavesAtCall(s, pc)
		}
		applyCall()
	case vm.OpTailCall:
		nArgRegs := in.A
		if nArgRegs > pv.cfg.ArgRegs {
			nArgRegs = pv.cfg.ArgRegs
		}
		for i := 0; i < nArgRegs; i++ {
			readReg(pv.cfg.ArgReg(i), "argument of tail call")
		}
		for _, sl := range pv.eff[pc-pv.start].ReadSlots {
			readSlot(sl, "stack argument of tail call")
		}
		readReg(vm.RegCP, "tail call")
		readReg(vm.RegRet, "tail call")
		checkExit("tail call")
	case vm.OpReturn:
		readReg(vm.RegRet, "return")
		readReg(vm.RegRV, "return")
		checkExit("return")
	case vm.OpHalt:
		readReg(vm.RegRV, "halt")
	}
}

// checkSavesAtCall enforces the lazy-save invariant at one call site:
// every restore pair live after the call must be covered by a save of
// the same register into the same slot — still holding the saved value
// — that dominates the call.
func (pv *procVerifier) checkSavesAtCall(s *state, pc int) {
	for w, word := range pv.pairsAfter[pc-pv.start] {
		for ; word != 0; word &= word - 1 {
			pv.checkSaveAtCall(s, pc, pv.pairList[w*64+bits.TrailingZeros64(word)])
		}
	}
}

// checkSaveAtCall checks one restore pair live after the call at pc.
func (pv *procVerifier) checkSaveAtCall(s *state, pc int, pr restorePair) {
	sc := s.saved[pr.reg]
	slotVal := s.slots.Get(pr.slot)
	if slotVal.k == aTop {
		return // provenance widened away; cannot disprove
	}
	switch {
	case !sc.ok || sc.slot != int32(pr.slot):
		pv.report(Violation{Kind: MissingSave, PC: pc, Reg: pr.reg, Slot: pr.slot, CallPC: pc,
			Msg: fmt.Sprintf("r%d is restored from fp[%d] after this call, but no save of r%d into fp[%d] dominates it",
				pr.reg, pr.slot, pr.reg, pr.slot),
			Witness: pv.witnessPath(pc)})
	case slotVal.k != aDef || slotVal.sym != sc.sym:
		pv.report(Violation{Kind: MissingSave, PC: pc, Reg: pr.reg, Slot: pr.slot, CallPC: pc,
			Msg: fmt.Sprintf("fp[%d] no longer holds the value saved from r%d when the call at pc %d executes",
				pr.slot, pr.reg, pc),
			Witness: pv.witnessPath(pc)})
	}
}

// pendingShuffle is one recorded parallel assignment of this
// procedure, with the source values captured when the replay passed
// its start.
type pendingShuffle struct {
	rec *vm.ShuffleRecord
	// src[i] is the value assignment i must move, aBot when the check
	// skips it; nil until the replay reaches the start.
	src []absVal
}

// collectShuffles indexes the procedure's recorded shuffles (pv.recs)
// by start and call pc, in record order.
func (pv *procVerifier) collectShuffles() {
	for _, i := range pv.recs {
		rec := &pv.p.Shuffles[i]
		if rec.CallPC < rec.StartPC || rec.CallPC >= pv.end {
			continue
		}
		if pv.shufflesAt == nil {
			pv.shufflesAt = map[int][]int{}
		}
		id := len(pv.shuffles)
		pv.shuffles = append(pv.shuffles, pendingShuffle{rec: rec})
		pv.shufflesAt[rec.StartPC] = append(pv.shufflesAt[rec.StartPC], id)
		if rec.CallPC != rec.StartPC {
			pv.shufflesAt[rec.CallPC] = append(pv.shufflesAt[rec.CallPC], id)
		}
	}
}

// shuffleAt advances one shuffle's check at pc, whose in-state is s: at
// the start it captures every source cell, and at the call every target
// register must hold the value its source held when the call sequence
// began.
func (pv *procVerifier) shuffleAt(sh *pendingShuffle, pc int, s *state) {
	rec := sh.rec
	if pc == rec.StartPC {
		sh.src = make([]absVal, len(rec.Assigns))
		for i, a := range rec.Assigns {
			switch {
			case a.SrcIsSlot && a.Src >= 0 && a.Src < pv.frame:
				sh.src[i] = s.slots.Get(a.Src)
			case !a.SrcIsSlot && a.Src >= 0 && a.Src < pv.nRegs:
				sh.src[i] = s.regs[a.Src]
			}
		}
	}
	if pc != rec.CallPC || sh.src == nil {
		return
	}
	for i, a := range rec.Assigns {
		src := sh.src[i]
		if src.k != aDef {
			continue // source unproven or out of range; read checks cover it
		}
		if a.Target < 0 || a.Target >= pv.nRegs {
			continue
		}
		tgt := s.regs[a.Target]
		if tgt.k == aTop {
			continue
		}
		if tgt.k == aDef && tgt.sym == src.sym {
			continue
		}
		srcName := fmt.Sprintf("r%d", a.Src)
		if a.SrcIsSlot {
			srcName = fmt.Sprintf("fp[%d]", a.Src)
		}
		detail := "holds a different value"
		switch tgt.k {
		case aClob:
			detail = fmt.Sprintf("was destroyed by the call at pc %d", tgt.sym)
		case aUndef:
			detail = "was never written"
		}
		pv.report(Violation{Kind: ShuffleMismatch, PC: rec.CallPC, Reg: a.Target, Slot: -1, CallPC: rec.CallPC,
			Msg: fmt.Sprintf("shuffle starting at pc %d must move %s into r%d, but r%d %s at the call",
				rec.StartPC, srcName, a.Target, a.Target, detail),
			Witness: pv.witnessPath(rec.CallPC)})
	}
}
