package codegen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/regset"
	"repro/internal/vm"
)

// emitter is pass 2 (§3.2) fused with instruction emission: it walks a
// procedure forward generating code, eliminating saves already performed
// by an enclosing save region, and inserting restores per the selected
// policy (immediately after calls for eager, at first use plus save-
// region exit for lazy).
type emitter struct {
	cg  *codegen
	cfg vm.Config

	// saved holds the registers whose save slots are valid along every
	// path to the current point (join: intersection).
	saved regset.Set
	// stale holds the registers whose *register* copy may have been
	// destroyed by a call and not yet restored (join: union).
	stale regset.Set
	// repurposed holds variable-home registers currently carrying a
	// freshly computed outgoing-argument value (written by the shuffle
	// while flagged stale); the lazy policy's save-region-exit restores
	// must not clobber them (join: union).
	repurposed regset.Set
	// regVar maps each register to the variable currently homed there.
	regVar [64]*ir.Var
	// retSaveSlot and cpSaveSlot are the frame homes of ret and cp.
	retSaveSlot, cpSaveSlot int

	// scratch management
	scratchInUse regset.Set
	nScratch     int

	// stackParams is the number of incoming stack-argument slots.
	stackParams int

	// temp-slot watermark allocator
	tempBase int
	nextTemp int
	maxTemp  int

	// patchFrameB/patchFrameC are instruction indices whose B resp. C
	// operand is the final frame size.
	patchFrameB []int
	patchFrameC []int
	entryIdx    int
}

// emitProc compiles one procedure, appending to cg.code, and returns its
// entry address. A procedure whose frame would exceed vm.MaxFrame is an
// error.
func (cg *codegen) emitProc(p *ir.Proc) (int, error) {
	stackParams, varSlots := cg.assignLocations(p)
	if cg.opts.CalleeSave {
		markCrossing(p)
		cg.assignCalleeSaveRegs(p)
	}

	// Allocate save-slot homes: ret and cp first, then every
	// register-homed variable.
	saveBase := stackParams + varSlots
	em := &emitter{
		cg:          cg,
		cfg:         cg.opts.Config,
		retSaveSlot: saveBase,
		cpSaveSlot:  saveBase + 1,
		nScratch:    cg.opts.Config.ScratchRegs,
	}
	nSaves := 2
	assignSaveSlots(p.Body, saveBase, &nSaves)
	for _, v := range p.Params {
		if v.Loc.Kind == ir.LocReg {
			v.SaveSlot = saveBase + nSaves
			nSaves++
		}
	}
	em.stackParams = stackParams
	em.tempBase = saveBase + nSaves
	em.nextTemp = em.tempBase
	em.maxTemp = em.tempBase

	entrySaves := cg.analyzeProc(p)

	entry := len(cg.code)
	em.entryIdx = entry
	cg.emit(vm.Instr{Op: vm.OpEntry, A: len(p.Params)})
	for _, v := range p.Params {
		if v.Loc.Kind == ir.LocReg {
			em.regVar[v.Loc.Index] = v
		}
	}
	em.emitSaves(entrySaves, true)
	em.emitExpr(p.Body, vm.RegRV)
	em.ensureFresh(retReg)
	em.emitCSEpilogue()
	cg.emit(vm.Instr{Op: vm.OpReturn})

	frame := em.maxTemp
	if frame > vm.MaxFrame {
		return 0, fmt.Errorf("codegen: procedure %s needs a frame of %d slots, over the limit of %d", p.Name, frame, vm.MaxFrame)
	}
	cg.code[entry].B = frame
	for _, i := range em.patchFrameB {
		cg.code[i].B = frame
	}
	for _, i := range em.patchFrameC {
		cg.code[i].C = frame
	}
	return entry, nil
}

// assignSaveSlots walks the body giving every register-homed bound
// variable a save-slot home.
func assignSaveSlots(e ir.Expr, base int, n *int) {
	switch t := e.(type) {
	case *ir.Const, *ir.VarRef, *ir.FreeRef, *ir.GlobalRef:
	case *ir.GlobalSet:
		assignSaveSlots(t.Rhs, base, n)
	case *ir.If:
		assignSaveSlots(t.Test, base, n)
		assignSaveSlots(t.Then, base, n)
		assignSaveSlots(t.Else, base, n)
	case *ir.Seq:
		for _, x := range t.Exprs {
			assignSaveSlots(x, base, n)
		}
	case *ir.Bind:
		if t.Var.Loc.Kind == ir.LocReg {
			t.Var.SaveSlot = base + *n
			*n++
		}
		assignSaveSlots(t.Rhs, base, n)
		assignSaveSlots(t.Body, base, n)
	case *ir.PrimCall:
		for _, x := range t.Args {
			assignSaveSlots(x, base, n)
		}
	case *ir.Call:
		assignSaveSlots(t.Fn, base, n)
		for _, x := range t.Args {
			assignSaveSlots(x, base, n)
		}
	case *ir.MakeClosure:
	case *ir.Fix:
		for _, v := range t.Vars {
			if v.Loc.Kind == ir.LocReg {
				v.SaveSlot = base + *n
				*n++
			}
		}
		assignSaveSlots(t.Body, base, n)
	case *ir.Save:
		assignSaveSlots(t.Body, base, n)
	default:
		panic(fmt.Sprintf("codegen: assignSaveSlots: unknown expression %T", e))
	}
}

func (em *emitter) slotForReg(r int) int {
	switch r {
	case retReg:
		return em.retSaveSlot
	case cpReg:
		return em.cpSaveSlot
	}
	v := em.regVar[r]
	if v == nil {
		panic(fmt.Sprintf("codegen: no variable homed in r%d", r))
	}
	if v.SaveSlot < 0 {
		panic(fmt.Sprintf("codegen: variable %s has no save slot", v))
	}
	return v.SaveSlot
}

// emitSaves stores the given registers to their save slots. With dedup,
// registers already covered by an enclosing save region are skipped
// (pass 2's redundant-save elimination); the late strategy passes dedup
// = false to reproduce the natural strategy's redundant saves.
func (em *emitter) emitSaves(regs regset.Set, dedup bool) {
	regs.ForEach(func(r int) {
		if v := em.regVar[r]; v != nil && v.CSReg >= 0 {
			// Callee-save discipline (§2.4): at the save point the
			// variable moves into its callee-save register, whose
			// previous contents are saved to the frame; the move never
			// repeats (the value would overwrite the saved contents).
			if em.saved.Has(r) {
				return
			}
			em.ensureFresh(r)
			em.cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: v.CSReg, B: em.slotForReg(r), Kind: vm.KindSave})
			em.cg.emit(vm.Instr{Op: vm.OpMove, A: v.CSReg, B: r})
			em.cg.stats.SaveSites++
			em.saved = em.saved.Add(r)
			return
		}
		if dedup && em.saved.Has(r) {
			return
		}
		em.ensureFresh(r)
		em.cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: r, B: em.slotForReg(r), Kind: vm.KindSave})
		em.cg.stats.SaveSites++
		em.saved = em.saved.Add(r)
	})
}

// emitCSEpilogue restores the previous contents of every callee-save
// register this procedure moved a variable into. It runs at procedure
// exits (returns and tail calls), after all argument evaluation.
func (em *emitter) emitCSEpilogue() {
	em.saved.ForEach(func(r int) {
		if v := em.regVar[r]; v != nil && v.CSReg >= 0 {
			em.cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: v.CSReg, B: em.slotForReg(r), Kind: vm.KindRestore})
			em.cg.stats.RestoreSites++
		}
	})
}

// releaseCS restores the previous contents of a callee-save register
// when the variable living in it is rebound or goes out of scope. The
// procedure-exit epilogue walks the current regVar/saved bookkeeping, so
// a shadow association dropped mid-procedure would otherwise leave the
// caller's value clobbered at exits (§2.4 requires it restored).
func (em *emitter) releaseCS(r int) {
	v := em.regVar[r]
	if v == nil || v.CSReg < 0 || !em.saved.Has(r) {
		return
	}
	em.cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: v.CSReg, B: em.slotForReg(r), Kind: vm.KindRestore})
	em.cg.stats.RestoreSites++
	em.saved = em.saved.Remove(r)
	em.stale = em.stale.Remove(r)
}

// reconcileCS undoes callee-save moves made within a diverging branch so
// the join sees a consistent register file: the variable's value moves
// back to its primary register and the callee-save register's previous
// contents are reloaded. Moves made before the branch (in savedBefore)
// stay in effect.
func (em *emitter) reconcileCS(savedBefore regset.Set) {
	em.saved.Minus(savedBefore).ForEach(func(r int) {
		v := em.regVar[r]
		if v == nil || v.CSReg < 0 {
			return
		}
		em.cg.emit(vm.Instr{Op: vm.OpMove, A: r, B: v.CSReg})
		em.cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: v.CSReg, B: em.slotForReg(r), Kind: vm.KindRestore})
		em.cg.stats.RestoreSites++
		em.saved = em.saved.Remove(r)
		em.stale = em.stale.Remove(r)
	})
}

// varReadReg returns the register holding the variable's current value:
// the callee-save shadow once the variable has moved there, otherwise
// the primary register (restored if a call destroyed it).
func (em *emitter) varReadReg(v *ir.Var) int {
	r := v.Loc.Index
	if v.CSReg >= 0 && em.saved.Has(r) {
		return v.CSReg
	}
	em.ensureFresh(r)
	return r
}

// csShadowSource reports the callee-save shadow register holding e's
// value, when e is a variable reference whose value has moved there.
// Such a source is immune to the argument shuffle (targets and
// temporaries never come from the callee-save file) and survives any
// call the shuffle plan performs, so it can be read at any point of the
// call sequence.
func (em *emitter) csShadowSource(e ir.Expr) (int, bool) {
	vr, ok := e.(*ir.VarRef)
	if !ok {
		return 0, false
	}
	v := vr.Var
	if v.Loc.Kind == ir.LocReg && v.CSReg >= 0 && em.saved.Has(v.Loc.Index) {
		return v.CSReg, true
	}
	return 0, false
}

// shuffleAssigns records, for the translation validator, where each
// simple (variable-reference) shuffle argument's value lives as the
// call sequence begins: in the callee-save shadow once the variable has
// moved there, in the save slot when a call destroyed the register
// copy, otherwise in the home cell. Complex arguments are computed
// during the sequence and have no pre-existing source to check against.
func (em *emitter) shuffleAssigns(t *ir.Call) []vm.ShuffleAssign {
	if len(t.ShuffleArgs) == 0 {
		return nil
	}
	nreg := len(t.Args)
	if nreg > em.cfg.ArgRegs {
		nreg = em.cfg.ArgRegs
	}
	var out []vm.ShuffleAssign
	record := func(e ir.Expr, target int) {
		vr, ok := e.(*ir.VarRef)
		if !ok {
			return
		}
		v := vr.Var
		switch v.Loc.Kind {
		case ir.LocSlot:
			out = append(out, vm.ShuffleAssign{Target: target, Src: v.Loc.Index, SrcIsSlot: true})
		case ir.LocReg:
			r := v.Loc.Index
			switch {
			case v.CSReg >= 0 && em.saved.Has(r):
				out = append(out, vm.ShuffleAssign{Target: target, Src: v.CSReg})
			case em.stale.Has(r):
				if em.saved.Has(r) && em.regVar[r] == v && v.SaveSlot >= 0 {
					out = append(out, vm.ShuffleAssign{Target: target, Src: v.SaveSlot, SrcIsSlot: true})
				}
			default:
				out = append(out, vm.ShuffleAssign{Target: target, Src: r})
			}
		}
	}
	for i := 0; i < nreg; i++ {
		record(t.Args[i], t.ShuffleArgs[i].Target)
	}
	record(t.Fn, t.ShuffleArgs[len(t.ShuffleArgs)-1].Target)
	return out
}

// ensureFresh makes register r's in-register copy valid, restoring it
// from its save slot if a call destroyed it (this is the lazy-restore
// "restore at first use" path; under the eager policy it only fires for
// ret before returns in rare shapes and is counted as defensive).
func (em *emitter) ensureFresh(r int) {
	if !em.stale.Has(r) {
		return
	}
	if v := em.regVar[r]; v != nil && v.CSReg >= 0 && em.saved.Has(r) {
		// The live value is in the callee-save shadow register; the
		// primary register is never reloaded.
		return
	}
	if !em.saved.Has(r) {
		panic(fmt.Sprintf("codegen: read of destroyed unsaved register r%d", r))
	}
	em.cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: r, B: em.slotForReg(r), Kind: vm.KindRestore})
	em.cg.stats.RestoreSites++
	if em.cg.opts.Restores == RestoreEager {
		em.cg.stats.DefensiveRestores++
	}
	em.stale = em.stale.Remove(r)
	em.repurposed = em.repurposed.Remove(r)
}

func (em *emitter) allocScratch() int {
	for i := 0; i < em.nScratch-1; i++ {
		r := em.cfg.ScratchReg(i)
		if !em.scratchInUse.Has(r) {
			em.scratchInUse = em.scratchInUse.Add(r)
			return r
		}
	}
	return -1
}

func (em *emitter) freeScratch(r int) {
	em.scratchInUse = em.scratchInUse.Remove(r)
}

// spillReg is the reserved scratch register used transiently when the
// pool is exhausted or a throwaway destination is needed; it is always
// written immediately before being consumed.
func (em *emitter) spillReg() int { return em.cfg.ScratchReg(em.nScratch - 1) }

func (em *emitter) allocTemp() int {
	t := em.nextTemp
	em.nextTemp++
	if em.nextTemp > em.maxTemp {
		em.maxTemp = em.nextTemp
	}
	return t
}

func (em *emitter) releaseTemps(mark int) { em.nextTemp = mark }

// operand evaluates e for use as a primitive/closure operand, returning
// the operand encoding (register, or ^slot for a direct memory operand)
// and a release function.
func (em *emitter) operand(e ir.Expr) (int, func()) {
	switch t := e.(type) {
	case *ir.VarRef:
		if t.Var.Loc.Kind == ir.LocReg {
			return em.varReadReg(t.Var), func() {}
		}
		return ^t.Var.Loc.Index, func() {}
	}
	if s := em.allocScratch(); s >= 0 {
		em.emitExpr(e, s)
		return s, func() { em.freeScratch(s) }
	}
	// Scratch pool exhausted: evaluate via the spill register into a
	// frame temporary and use a memory operand.
	em.emitExpr(e, em.spillReg())
	tmp := em.allocTemp()
	em.cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: em.spillReg(), B: tmp, Kind: vm.KindTemp})
	return ^tmp, func() {}
}

// operandReg is like operand but guarantees a register (for branch
// tests, stores, and patches).
func (em *emitter) operandReg(e ir.Expr) (int, func()) {
	if t, ok := e.(*ir.VarRef); ok && t.Var.Loc.Kind == ir.LocReg {
		return em.varReadReg(t.Var), func() {}
	}
	if s := em.allocScratch(); s >= 0 {
		em.emitExpr(e, s)
		return s, func() { em.freeScratch(s) }
	}
	em.emitExpr(e, em.spillReg())
	return em.spillReg(), func() {}
}

// emitExpr generates code computing e into register dst (-1 discards the
// value). The destination is always written last, so dst may be a
// register that e's evaluation reads.
func (em *emitter) emitExpr(e ir.Expr, dst int) {
	cg := em.cg
	switch t := e.(type) {
	case *ir.Const:
		if dst < 0 {
			return
		}
		cg.emit(vm.Instr{Op: vm.OpLoadConst, A: dst, B: cg.constIndex(t.Value)})

	case *ir.VarRef:
		if dst < 0 {
			return
		}
		if t.Var.Loc.Kind == ir.LocReg {
			r := em.varReadReg(t.Var)
			if dst != r {
				cg.emit(vm.Instr{Op: vm.OpMove, A: dst, B: r})
			}
			return
		}
		cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: dst, B: t.Var.Loc.Index, Kind: vm.KindVar})

	case *ir.FreeRef:
		if dst < 0 {
			return
		}
		em.ensureFresh(cpReg)
		cg.emit(vm.Instr{Op: vm.OpFreeRef, A: dst, B: t.Index})

	case *ir.GlobalRef:
		if dst < 0 {
			dst = em.spillReg() // keep the unbound-global check
		}
		cg.emit(vm.Instr{Op: vm.OpLoadGlobal, A: dst, B: t.Index})

	case *ir.GlobalSet:
		r, release := em.operandReg(t.Rhs)
		cg.emit(vm.Instr{Op: vm.OpStoreGlobal, A: r, B: t.Index})
		release()
		if dst >= 0 {
			cg.emit(vm.Instr{Op: vm.OpLoadConst, A: dst, B: cg.unspecIndex()})
		}

	case *ir.Seq:
		for _, x := range t.Exprs[:len(t.Exprs)-1] {
			em.emitExpr(x, -1)
		}
		em.emitExpr(t.Exprs[len(t.Exprs)-1], dst)

	case *ir.If:
		em.emitIf(t, dst)

	case *ir.Bind:
		em.emitBind(t, dst)

	case *ir.PrimCall:
		em.emitPrim(t, dst)

	case *ir.Call:
		em.emitCall(t, dst)

	case *ir.MakeClosure:
		if dst < 0 {
			dst = em.spillReg()
		}
		em.emitClosure(t, dst, nil)

	case *ir.Fix:
		em.emitFix(t, dst)

	case *ir.Save:
		em.emitSaves(t.Regs, true)
		em.emitExpr(t.Body, dst)

	default:
		panic(fmt.Sprintf("codegen: emit: unknown expression %T", e))
	}
}

func (em *emitter) emitIf(t *ir.If, dst int) {
	cg := em.cg
	treg, release := em.operandReg(t.Test)
	br := len(cg.code)
	var predict int8
	if t.PredictThen != nil {
		if *t.PredictThen {
			predict = -1 // predicted fall-through (then)
		} else {
			predict = 1 // predicted taken (else)
		}
	}
	cg.emit(vm.Instr{Op: vm.OpBranchFalse, A: treg, Predict: predict})
	release()

	savedBefore, staleBefore, repBefore := em.saved, em.stale, em.repurposed

	em.emitSaves(t.ThenSaves, true)
	em.emitExpr(t.Then, dst)
	em.exitRegion(t.LiveAfter)
	em.reconcileCS(savedBefore)
	savedThen, staleThen, repThen := em.saved, em.stale, em.repurposed
	jmp := len(cg.code)
	cg.emit(vm.Instr{Op: vm.OpJump})

	cg.code[br].B = len(cg.code)
	em.saved, em.stale, em.repurposed = savedBefore, staleBefore, repBefore
	em.emitSaves(t.ElseSaves, true)
	em.emitExpr(t.Else, dst)
	em.exitRegion(t.LiveAfter)
	em.reconcileCS(savedBefore)

	cg.code[jmp].A = len(cg.code)
	em.saved = em.saved.Intersect(savedThen)
	em.stale = em.stale.Union(staleThen)
	em.repurposed = em.repurposed.Union(repThen)
}

// exitRegion implements the lazy-restore policy's "restore when the
// register is live on exit from the enclosing save region" rule
// (Figure 2c): each branch leaves every live saved register fresh, so
// the join sees a consistent register file.
func (em *emitter) exitRegion(liveAfter regset.Set) {
	if em.cg.opts.Restores != RestoreLazy {
		return
	}
	core.RestoreSet(liveAfter, em.saved).Intersect(em.stale).Minus(em.repurposed).ForEach(func(r int) {
		if v := em.regVar[r]; v != nil && v.CSReg >= 0 {
			return // the live value sits in the callee-save shadow
		}
		em.cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: r, B: em.slotForReg(r), Kind: vm.KindRestore})
		em.cg.stats.RestoreSites++
		em.stale = em.stale.Remove(r)
	})
}

func (em *emitter) emitBind(t *ir.Bind, dst int) {
	cg := em.cg
	if t.Var.Loc.Kind == ir.LocReg {
		r := t.Var.Loc.Index
		em.emitExpr(t.Rhs, r)
		em.releaseCS(r)
		old := em.regVar[r]
		em.regVar[r] = t.Var
		em.saved = em.saved.Remove(r)
		em.stale = em.stale.Remove(r)
		em.repurposed = em.repurposed.Remove(r)
		if t.SaveVar {
			em.emitSaves(regset.Single(r), true)
		}
		em.emitExpr(t.Body, dst)
		em.releaseCS(r)
		em.regVar[r] = old
		em.saved = em.saved.Remove(r)
		em.stale = em.stale.Remove(r)
		return
	}
	rr, release := em.operandReg(t.Rhs)
	cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: rr, B: t.Var.Loc.Index, Kind: vm.KindVar})
	release()
	em.emitExpr(t.Body, dst)
}

func (em *emitter) emitPrim(t *ir.PrimCall, dst int) {
	cg := em.cg
	mark := em.nextTemp
	operands := make([]int, len(t.Args))
	releases := make([]func(), 0, len(t.Args))
	// Call-containing arguments first, into frame temporaries.
	for i, a := range t.Args {
		if ir.HasCalls(a) {
			em.emitExpr(a, vm.RegRV)
			tmp := em.allocTemp()
			cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: vm.RegRV, B: tmp, Kind: vm.KindTemp})
			operands[i] = ^tmp
		}
	}
	for i, a := range t.Args {
		if !ir.HasCalls(a) {
			op, release := em.operand(a)
			operands[i] = op
			releases = append(releases, release)
		}
	}
	if dst < 0 {
		dst = em.spillReg()
	}
	cg.emit(vm.Instr{Op: vm.OpPrim, A: dst, B: cg.primIndex(t.Def), Regs: operands})
	for _, r := range releases {
		r()
	}
	em.releaseTemps(mark)
}

func (em *emitter) emitClosure(t *ir.MakeClosure, dst int, placeholderFor map[*ir.Var]bool) []int {
	cg := em.cg
	operands := make([]int, len(t.Free))
	releases := make([]func(), 0, len(t.Free))
	var patchSlots []int
	for i, f := range t.Free {
		if vr, ok := f.(*ir.VarRef); ok && placeholderFor[vr.Var] {
			// Forward reference to a fix sibling not yet allocated:
			// fill with a placeholder and patch afterwards.
			s := em.spillReg()
			cg.emit(vm.Instr{Op: vm.OpLoadConst, A: s, B: cg.unspecIndex()})
			operands[i] = s
			patchSlots = append(patchSlots, i)
			continue
		}
		op, release := em.operand(f)
		operands[i] = op
		releases = append(releases, release)
	}
	cg.emit(vm.Instr{Op: vm.OpClosure, A: dst, B: t.ProcIndex, Regs: operands})
	for _, r := range releases {
		r()
	}
	return patchSlots
}

func (em *emitter) emitFix(t *ir.Fix, dst int) {
	cg := em.cg
	// Pending siblings need placeholders until allocated.
	pending := map[*ir.Var]bool{}
	for _, v := range t.Vars {
		pending[v] = true
	}
	oldVars := make([]*ir.Var, len(t.Vars))

	type patch struct {
		owner    *ir.Var // closure variable whose record needs patching
		freeSlot int
		src      *ir.Var // value to store (a fix sibling)
	}
	var patches []patch

	for i, v := range t.Vars {
		var target int
		var release func()
		if v.Loc.Kind == ir.LocReg {
			target = v.Loc.Index
			release = func() {}
		} else {
			s := em.allocScratch()
			if s < 0 {
				s = em.spillReg()
				release = func() {}
			} else {
				sv := s
				release = func() { em.freeScratch(sv) }
			}
			target = s
		}
		slots := em.emitClosure(t.Closures[i], target, pending)
		for _, fs := range slots {
			src := t.Closures[i].Free[fs].(*ir.VarRef).Var
			patches = append(patches, patch{owner: v, freeSlot: fs, src: src})
		}
		if v.Loc.Kind == ir.LocReg {
			em.releaseCS(target)
			oldVars[i] = em.regVar[target]
			em.regVar[target] = v
			em.saved = em.saved.Remove(target)
			em.stale = em.stale.Remove(target)
		} else {
			cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: target, B: v.Loc.Index, Kind: vm.KindVar})
		}
		release()
		delete(pending, v)
	}

	// Patch forward references now that every closure exists. Patching
	// mutates the heap record, so slot-homed closures are loaded into a
	// register transiently.
	for _, p := range patches {
		ownerReg := -1
		var release func() = func() {}
		if p.owner.Loc.Kind == ir.LocReg {
			ownerReg = p.owner.Loc.Index
			em.ensureFresh(ownerReg)
		} else {
			s := em.allocScratch()
			if s < 0 {
				s = em.spillReg()
			} else {
				sv := s
				release = func() { em.freeScratch(sv) }
			}
			cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: s, B: p.owner.Loc.Index, Kind: vm.KindVar})
			ownerReg = s
		}
		srcOp, srcRelease := em.operand(&ir.VarRef{Var: p.src})
		if srcOp < 0 {
			// src is slot-homed: bring it into the spill register.
			cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: em.spillReg(), B: ^srcOp, Kind: vm.KindVar})
			srcOp = em.spillReg()
		}
		cg.emit(vm.Instr{Op: vm.OpClosurePatch, A: ownerReg, B: p.freeSlot, C: srcOp})
		srcRelease()
		release()
	}

	for i, v := range t.Vars {
		if v.Loc.Kind == ir.LocReg && t.SaveVars[i] {
			em.emitSaves(regset.Single(v.Loc.Index), true)
		}
	}

	em.emitExpr(t.Body, dst)

	for i, v := range t.Vars {
		if v.Loc.Kind == ir.LocReg {
			r := v.Loc.Index
			em.releaseCS(r)
			em.regVar[r] = oldVars[i]
			em.saved = em.saved.Remove(r)
			em.stale = em.stale.Remove(r)
		}
	}
}

// emitCall generates a call site: late saves, argument setup per the
// shuffle plan, the call itself, and post-call restores.
func (em *emitter) emitCall(t *ir.Call, dst int) {
	cg := em.cg
	cfg := em.cfg
	effTail := t.Tail && !t.CallCC

	// Record the shuffle's parallel assignment for the translation
	// validator before any of the call sequence is emitted: the sources
	// name where each simple argument's value lives right now.
	shStart := len(cg.code)
	shAssigns := em.shuffleAssigns(t)

	if !t.LateSaves.IsEmpty() {
		em.emitSaves(t.LateSaves, false)
	}

	mark := em.nextTemp
	nreg := len(t.Args)
	if nreg > cfg.ArgRegs {
		nreg = cfg.ArgRegs
	}
	exprs := make([]ir.Expr, 0, nreg+1)
	for i := 0; i < nreg; i++ {
		exprs = append(exprs, t.Args[i])
	}
	exprs = append(exprs, t.Fn)

	// Stack arguments are evaluated before the register shuffle (they
	// may read argument registers the shuffle is about to overwrite).
	// Complex ones go to temporaries first; simple ones are stored
	// directly when no call can intervene before the transfer, and
	// staged through temporaries otherwise.
	nStackArgs := max(0, len(t.Args)-cfg.ArgRegs)
	if effTail && nStackArgs > 0 {
		// Staging temporaries must lie above every target slot so the
		// final block copy cannot clobber a pending temporary.
		if em.nextTemp < nStackArgs {
			em.nextTemp = nStackArgs
			if em.nextTemp > em.maxTemp {
				em.maxTemp = em.nextTemp
			}
		}
	}
	planHasCall := false
	for _, sa := range t.ShuffleArgs {
		if sa.Complex {
			planHasCall = true
		}
	}
	var readers tailSlotReaders
	if effTail && nStackArgs > 0 {
		readers = em.tailSlotReaders(t)
	}
	stackTemps := map[int]int{}
	for i := cfg.ArgRegs; i < len(t.Args); i++ {
		if ir.HasCalls(t.Args[i]) {
			em.emitExpr(t.Args[i], vm.RegRV)
			tmp := em.allocTemp()
			cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: vm.RegRV, B: tmp, Kind: vm.KindTemp})
			stackTemps[i] = tmp
		}
	}
	for i := cfg.ArgRegs; i < len(t.Args); i++ {
		if ir.HasCalls(t.Args[i]) {
			continue
		}
		k := i - cfg.ArgRegs
		if em.stackArgDirect(i, k, effTail, planHasCall, readers) {
			r, release := em.operandReg(t.Args[i])
			if effTail {
				cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: r, B: k, Kind: vm.KindArg})
			} else {
				em.emitStoreOut(r, k)
			}
			release()
			stackTemps[i] = -1 // already delivered
			continue
		}
		r, release := em.operandReg(t.Args[i])
		tmp := em.allocTemp()
		cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: r, B: tmp, Kind: vm.KindTemp})
		release()
		stackTemps[i] = tmp
	}

	// The register shuffle plan. Targets become argument carriers: they
	// are marked repurposed so the lazy policy's save-region-exit
	// restores cannot clobber the pending values.
	//
	// The plan was computed against home registers; a simple argument
	// whose value has moved to its callee-save shadow needs no staging
	// at all, because the shuffle neither targets nor clobbers the
	// callee-save file — the shadow is read directly at move time.
	argTemps := map[int]int{}
	argCS := map[int]int{}
	for _, step := range t.Plan.Steps {
		expr := exprs[step.Arg]
		target := t.ShuffleArgs[step.Arg].Target
		if step.Dest != core.DestTarget {
			if cs, ok := em.csShadowSource(expr); ok {
				argCS[step.Arg] = cs
				continue
			}
		}
		switch step.Dest {
		case core.DestTarget:
			em.repurposed = em.repurposed.Add(target)
			em.emitExpr(expr, target)
			em.repurposed = em.repurposed.Add(target)
		case core.DestRegTemp:
			em.repurposed = em.repurposed.Add(step.TempReg)
			em.emitExpr(expr, step.TempReg)
			em.repurposed = em.repurposed.Add(step.TempReg)
		case core.DestStackTemp:
			if ir.HasCalls(expr) {
				em.emitExpr(expr, vm.RegRV)
				tmp := em.allocTemp()
				cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: vm.RegRV, B: tmp, Kind: vm.KindTemp})
				argTemps[step.Arg] = tmp
			} else {
				r, release := em.operandReg(expr)
				tmp := em.allocTemp()
				cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: r, B: tmp, Kind: vm.KindTemp})
				release()
				argTemps[step.Arg] = tmp
			}
		}
	}
	for _, argIdx := range t.Plan.Moves {
		target := t.ShuffleArgs[argIdx].Target
		em.repurposed = em.repurposed.Add(target)
		if cs, ok := argCS[argIdx]; ok {
			cg.emit(vm.Instr{Op: vm.OpMove, A: target, B: cs})
			continue
		}
		if tmp, ok := argTemps[argIdx]; ok {
			cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: target, B: tmp, Kind: vm.KindTemp})
			continue
		}
		// Register temporary: find its step.
		moved := false
		for _, step := range t.Plan.Steps {
			if step.Arg == argIdx && step.Dest == core.DestRegTemp {
				cg.emit(vm.Instr{Op: vm.OpMove, A: target, B: step.TempReg})
				moved = true
				break
			}
		}
		if !moved {
			panic("codegen: shuffle move without a temporary")
		}
	}

	// For a tail call the outgoing slots overwrite the bottom of our own
	// frame — including, possibly, the ret/cp save area — so ret must be
	// back in its register before the copies run.
	if effTail {
		em.ensureFresh(retReg)
	}

	// Deliver the staged stack arguments (all evaluation, including any
	// calls in the shuffle plan, is complete).
	for i := cfg.ArgRegs; i < len(t.Args); i++ {
		tmp := stackTemps[i]
		if tmp < 0 {
			continue // delivered directly
		}
		k := i - cfg.ArgRegs
		cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: em.spillReg(), B: tmp, Kind: vm.KindTemp})
		if effTail {
			cg.emit(vm.Instr{Op: vm.OpStoreSlot, A: em.spillReg(), B: k, Kind: vm.KindArg})
		} else {
			em.emitStoreOut(em.spillReg(), k)
		}
	}

	switch {
	case t.CallCC:
		em.ensureFresh(retReg)
		em.patchFrameB = append(em.patchFrameB, len(cg.code))
		cg.emit(vm.Instr{Op: vm.OpCallCC, A: 1})
	case effTail:
		em.ensureFresh(retReg)
		em.emitCSEpilogue()
		cg.emit(vm.Instr{Op: vm.OpTailCall, A: len(t.Args)})
	default:
		em.patchFrameB = append(em.patchFrameB, len(cg.code))
		cg.emit(vm.Instr{Op: vm.OpCall, A: len(t.Args)})
	}

	if len(shAssigns) > 0 {
		cg.shuffles = append(cg.shuffles, vm.ShuffleRecord{
			StartPC: shStart,
			CallPC:  len(cg.code) - 1,
			Assigns: shAssigns,
		})
	}

	em.releaseTemps(mark)
	if effTail {
		return
	}

	// Post-call: every caller-save register is destroyed; eager policy
	// restores everything possibly referenced before the next call.
	em.stale = regset.Universe(cfg.NumRegs()).Remove(vm.RegRV)
	em.repurposed = regset.Empty
	if em.cg.opts.Restores == RestoreEager {
		core.RestoreSet(t.RefsAfter, em.saved).ForEach(func(r int) {
			if v := em.regVar[r]; v != nil && v.CSReg >= 0 {
				return // survives the call in its callee-save shadow
			}
			cg.emit(vm.Instr{Op: vm.OpLoadSlot, A: r, B: em.slotForReg(r), Kind: vm.KindRestore})
			cg.stats.RestoreSites++
			em.stale = em.stale.Remove(r)
		})
	}

	if t.Tail && t.CallCC {
		// Emitted as a non-tail capture followed by a return.
		em.ensureFresh(retReg)
		em.emitCSEpilogue()
		cg.emit(vm.Instr{Op: vm.OpReturn})
		return
	}
	if dst >= 0 && dst != vm.RegRV {
		cg.emit(vm.Instr{Op: vm.OpMove, A: dst, B: vm.RegRV})
	}
}

// stackArgDirect reports whether stack argument i (target slot k of the
// callee frame) can be stored directly instead of staged via a
// temporary. For non-tail calls the outgoing area lies beyond our frame,
// so a direct store is safe unless a call in the shuffle plan would push
// a nested frame over it. For tail calls the target overlaps our own
// frame: the slot must lie within the incoming-parameter area (below the
// local/save/temp slots a nested call's restores might read) and must
// not be read by anything evaluated later, which readers answers.
func (em *emitter) stackArgDirect(i, k int, effTail, planHasCall bool, readers tailSlotReaders) bool {
	if !effTail {
		return !planHasCall
	}
	if k >= em.stackParams {
		return false
	}
	last, read := readers.lastArg[k]
	return (!read || last <= i) && !readers.plan[k]
}

// tailSlotReaders indexes, once per tail call, what is evaluated after
// each stack argument is stored: lastArg[k] is the last simple stack
// argument that reads frame slot k, and plan[k] whether an expression
// of the register shuffle plan reads it. Only incoming-parameter slots
// are indexed.
type tailSlotReaders struct {
	lastArg map[int]int
	plan    map[int]bool
}

func (em *emitter) tailSlotReaders(t *ir.Call) tailSlotReaders {
	r := tailSlotReaders{lastArg: map[int]int{}, plan: map[int]bool{}}
	cfg := em.cfg
	for j := cfg.ArgRegs; j < len(t.Args); j++ {
		if !ir.HasCalls(t.Args[j]) {
			slotsRead(t.Args[j], func(k int) {
				if k < em.stackParams {
					r.lastArg[k] = j
				}
			})
		}
	}
	// Plan step indices range over the register arguments followed by
	// the operator.
	nreg := min(len(t.Args), cfg.ArgRegs)
	for _, step := range t.Plan.Steps {
		expr := t.Fn
		if step.Arg < nreg {
			expr = t.Args[step.Arg]
		}
		slotsRead(expr, func(k int) {
			if k < em.stackParams {
				r.plan[k] = true
			}
		})
	}
	return r
}

// slotsRead calls visit with every frame slot that evaluating e may
// read (a slot-homed variable access).
func slotsRead(e ir.Expr, visit func(k int)) {
	switch t := e.(type) {
	case *ir.Const, *ir.GlobalRef, *ir.FreeRef:
	case *ir.VarRef:
		if t.Var.Loc.Kind == ir.LocSlot {
			visit(t.Var.Loc.Index)
		}
	case *ir.GlobalSet:
		slotsRead(t.Rhs, visit)
	case *ir.If:
		slotsRead(t.Test, visit)
		slotsRead(t.Then, visit)
		slotsRead(t.Else, visit)
	case *ir.Seq:
		for _, x := range t.Exprs {
			slotsRead(x, visit)
		}
	case *ir.Bind:
		slotsRead(t.Rhs, visit)
		slotsRead(t.Body, visit)
	case *ir.PrimCall:
		for _, x := range t.Args {
			slotsRead(x, visit)
		}
	case *ir.Call:
		slotsRead(t.Fn, visit)
		for _, x := range t.Args {
			slotsRead(x, visit)
		}
	case *ir.MakeClosure:
		for _, x := range t.Free {
			slotsRead(x, visit)
		}
	case *ir.Fix:
		for _, c := range t.Closures {
			slotsRead(c, visit)
		}
		slotsRead(t.Body, visit)
	case *ir.Save:
		slotsRead(t.Body, visit)
	default:
		panic(fmt.Sprintf("codegen: slotsRead: unknown expression %T", e))
	}
}

func (em *emitter) emitStoreOut(srcReg, outSlot int) {
	em.patchFrameC = append(em.patchFrameC, len(em.cg.code))
	em.cg.emit(vm.Instr{Op: vm.OpStoreOut, A: srcReg, B: outSlot, Kind: vm.KindArg})
}
