package codegen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/prim"
	"repro/internal/regset"
)

// analyzer is pass 1 of §3.1: a single bottom-up walk per procedure that
// simultaneously performs greedy shuffling, computes variable liveness
// (as register sets), computes S_t[E]/S_f[E], computes the "possibly
// referenced before the next call" sets for pass 2's eager restores, and
// records the save placement for the selected strategy as annotations on
// the IR.
type analyzer struct {
	cg *codegen
	// r is the register universe R.
	r regset.Set
}

// flow carries the backward-flowing analysis state.
type flow struct {
	// live is the set of registers whose variables may be referenced
	// later (variable-level liveness mapped onto home registers).
	live regset.Set
	// refs is the set of registers possibly referenced before the next
	// call (restore analysis, §2.2).
	refs regset.Set
}

// synth carries the bottom-up synthesized results.
type synth struct {
	// sets is (S_t[E], S_f[E]).
	sets core.SaveSets
	// simple is the one-set S[E] of the §2.1.1 simple algorithm (the
	// SaveSimple ablation).
	simple core.SimpleSets
	// ulive is the union of live-after sets over every non-tail call in
	// the subexpression — what the early strategy saves at definition
	// points.
	ulive regset.Set
}

func seqSynth(first, second synth) synth {
	return synth{
		sets:   core.SeqSets(first.sets, second.sets),
		simple: core.SimpleSeq(first.simple, second.simple),
		ulive:  first.ulive.Union(second.ulive),
	}
}

// analyzeProc runs pass 1 over one procedure and returns its entry save
// set.
func (cg *codegen) analyzeProc(p *ir.Proc) regset.Set {
	a := &analyzer{cg: cg, r: regset.Universe(cg.opts.Config.NumRegs())}
	// At procedure exit, ret is referenced (by the return instruction).
	exit := flow{live: regset.Single(retReg), refs: regset.Single(retReg)}
	_, s := a.walk(p.Body, exit)

	p.SyntacticLeaf = !ir.HasCalls(p.Body)
	// §2.4: a call is inevitable iff ret must be saved on every path.
	p.CallInevitable = s.sets.Save().Has(retReg)

	switch cg.opts.Saves {
	case SaveLazy:
		return s.sets.Save()
	case SaveSimple:
		return s.simple.S
	case SaveEarly:
		// Save at entry everything entry-defined that is ever live
		// across a call.
		entryRegs := regset.Of(retReg, cpReg)
		for _, v := range p.Params {
			if v.Loc.Kind == ir.LocReg {
				entryRegs = entryRegs.Add(v.Loc.Index)
			}
		}
		return s.ulive.Intersect(entryRegs)
	default: // SaveLate: saves are attached to each call.
		return regset.Empty
	}
}

const (
	retReg = 0
	cpReg  = 1
)

// walk analyzes e given the backward state after it, returning the state
// before it and the synthesized sets.
func (a *analyzer) walk(e ir.Expr, after flow) (flow, synth) {
	switch t := e.(type) {
	case *ir.Const:
		switch t.Value {
		case prim.True:
			return after, synth{sets: core.TrueSets(a.r)}
		case prim.False:
			return after, synth{sets: core.FalseSets(a.r)}
		}
		return after, synth{sets: core.LeafSets()}

	case *ir.VarRef:
		if t.Var.Loc.Kind == ir.LocReg {
			r := t.Var.Loc.Index
			return flow{live: after.live.Add(r), refs: after.refs.Add(r)}, synth{sets: core.LeafSets()}
		}
		return after, synth{sets: core.LeafSets()}

	case *ir.FreeRef:
		return flow{live: after.live.Add(cpReg), refs: after.refs.Add(cpReg)}, synth{sets: core.LeafSets()}

	case *ir.GlobalRef:
		return after, synth{sets: core.LeafSets()}

	case *ir.GlobalSet:
		return a.walk(t.Rhs, after)

	case *ir.Seq:
		s := synth{sets: core.LeafSets()}
		cur := after
		synths := make([]synth, len(t.Exprs))
		for i := len(t.Exprs) - 1; i >= 0; i-- {
			cur, synths[i] = a.walk(t.Exprs[i], cur)
		}
		for _, si := range synths {
			s = seqSynth(s, si)
		}
		return cur, s

	case *ir.If:
		t.LiveAfter = after.live
		thenFlow, thenS := a.walk(t.Then, after)
		elseFlow, elseS := a.walk(t.Else, after)

		// Save placement on the branches (lazy-family strategies; pass 2
		// eliminates saves already covered by an enclosing region).
		switch a.cg.opts.Saves {
		case SaveLazy:
			t.ThenSaves = thenS.sets.Save()
			t.ElseSaves = elseS.sets.Save()
		case SaveSimple:
			t.ThenSaves = thenS.simple.S
			t.ElseSaves = elseS.simple.S
		default:
			t.ThenSaves = regset.Empty
			t.ElseSaves = regset.Empty
		}

		testAfter := flow{
			live: thenFlow.live.Union(elseFlow.live),
			// A save instruction reads the register it saves, so
			// branch-entry saves count as references for the restore
			// analysis (a register destroyed by an earlier call must be
			// restored before it can be re-saved).
			refs: core.RefBranch(thenFlow.refs, elseFlow.refs).
				Union(t.ThenSaves).Union(t.ElseSaves),
		}
		testFlow, testS := a.walk(t.Test, testAfter)

		// §6 extension: predict the arm without an inevitable call.
		t.PredictThen = nil
		if a.cg.opts.PredictBranches {
			thenCalls := thenS.sets.Save().Has(retReg)
			elseCalls := elseS.sets.Save().Has(retReg)
			if thenCalls != elseCalls {
				predictThen := !thenCalls
				t.PredictThen = &predictThen
			}
		}

		return testFlow, synth{
			sets:   core.IfSets(testS.sets, thenS.sets, elseS.sets),
			simple: core.SimpleIf(testS.simple, thenS.simple, elseS.simple),
			ulive:  testS.ulive.Union(thenS.ulive).Union(elseS.ulive),
		}

	case *ir.Bind:
		bodyFlow, bodyS := a.walk(t.Body, after)
		if t.Var.Loc.Kind == ir.LocReg {
			r := t.Var.Loc.Index
			switch a.cg.opts.Saves {
			case SaveLazy:
				t.SaveVar = core.SaveAtBind(r, bodyS.sets)
			case SaveSimple:
				t.SaveVar = bodyS.simple.S.Has(r)
			case SaveEarly:
				t.SaveVar = bodyS.ulive.Has(r)
			default:
				t.SaveVar = false
			}
			bodyFlow = flow{live: bodyFlow.live.Remove(r), refs: core.RefDef(r, bodyFlow.refs)}
			rhsFlow, rhsS := a.walk(t.Rhs, bodyFlow)
			return rhsFlow, synth{
				sets:   core.BindSets(r, rhsS.sets, bodyS.sets),
				simple: core.SimpleSets{S: rhsS.simple.S.Union(bodyS.simple.S.Remove(r))},
				ulive:  rhsS.ulive.Union(bodyS.ulive),
			}
		}
		t.SaveVar = false
		rhsFlow, rhsS := a.walk(t.Rhs, bodyFlow)
		return rhsFlow, seqSynth(rhsS, bodyS)

	case *ir.PrimCall:
		return a.walkOrdered(primArgOrder(t.Args), after)

	case *ir.MakeClosure:
		cur := after
		s := synth{sets: core.LeafSets()}
		for i := len(t.Free) - 1; i >= 0; i-- {
			var fs synth
			cur, fs = a.walk(t.Free[i], cur)
			s = seqSynth(fs, s)
		}
		return cur, s

	case *ir.Fix:
		bodyFlow, bodyS := a.walk(t.Body, after)
		regs := regset.Empty
		for i, v := range t.Vars {
			if v.Loc.Kind != ir.LocReg {
				t.SaveVars[i] = false
				continue
			}
			r := v.Loc.Index
			regs = regs.Add(r)
			switch a.cg.opts.Saves {
			case SaveLazy:
				t.SaveVars[i] = core.SaveAtBind(r, bodyS.sets)
			case SaveSimple:
				t.SaveVars[i] = bodyS.simple.S.Has(r)
			case SaveEarly:
				t.SaveVars[i] = bodyS.ulive.Has(r)
			default:
				t.SaveVars[i] = false
			}
		}
		cur := flow{live: bodyFlow.live.Minus(regs), refs: bodyFlow.refs.Minus(regs)}
		s := synth{
			sets:   core.SaveSets{T: bodyS.sets.T.Minus(regs), F: bodyS.sets.F.Minus(regs)},
			simple: core.SimpleSets{S: bodyS.simple.S.Minus(regs)},
			ulive:  bodyS.ulive,
		}
		for i := len(t.Closures) - 1; i >= 0; i-- {
			var cs synth
			cur, cs = a.walk(t.Closures[i], cur)
			s = seqSynth(cs, s)
		}
		// Free-variable reads of the fix's own variables (self and
		// sibling recursion) are satisfied by closure patching inside
		// the fix; they must not leak as live registers above it.
		cur.live = cur.live.Minus(regs)
		cur.refs = cur.refs.Minus(regs)
		return cur, s

	case *ir.Call:
		return a.walkCall(t, after)

	default:
		panic(fmt.Sprintf("codegen: analyze: unknown expression %T", e))
	}
}

// walkOrdered analyzes a list of expressions in the given emission
// order.
func (a *analyzer) walkOrdered(order []ir.Expr, after flow) (flow, synth) {
	cur := after
	synths := make([]synth, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		cur, synths[i] = a.walk(order[i], cur)
	}
	s := synth{sets: core.LeafSets()}
	for _, si := range synths {
		s = seqSynth(s, si)
	}
	return cur, s
}

// primArgOrder is the evaluation order the emitter uses for primitive
// arguments: call-containing arguments first (their results go to frame
// temporaries), then the simple arguments.
func primArgOrder(args []ir.Expr) []ir.Expr {
	order := make([]ir.Expr, 0, len(args))
	for _, x := range args {
		if ir.HasCalls(x) {
			order = append(order, x)
		}
	}
	for _, x := range args {
		if !ir.HasCalls(x) {
			order = append(order, x)
		}
	}
	return order
}

// regReads collects the registers whose current values an expression
// reads (home registers of referenced variables, plus cp for free-variable
// access). Used to build shuffle dependency graphs.
func regReads(e ir.Expr) regset.Set {
	switch t := e.(type) {
	case *ir.Const, *ir.GlobalRef:
		return regset.Empty
	case *ir.VarRef:
		if t.Var.Loc.Kind == ir.LocReg {
			return regset.Single(t.Var.Loc.Index)
		}
		return regset.Empty
	case *ir.FreeRef:
		return regset.Single(cpReg)
	case *ir.GlobalSet:
		return regReads(t.Rhs)
	case *ir.If:
		return regReads(t.Test).Union(regReads(t.Then)).Union(regReads(t.Else))
	case *ir.Seq:
		s := regset.Empty
		for _, x := range t.Exprs {
			s = s.Union(regReads(x))
		}
		return s
	case *ir.Bind:
		s := regReads(t.Rhs).Union(regReads(t.Body))
		if t.Var.Loc.Kind == ir.LocReg {
			// The bound register is defined before any read of it within
			// the body, so it is not a read of the *current* value; but
			// its definition also means the body's reads of it are not
			// outer reads. Conservatively keep other reads.
			s = s.Remove(t.Var.Loc.Index)
			s = s.Union(regReads(t.Rhs))
		}
		return s
	case *ir.PrimCall:
		s := regset.Empty
		for _, x := range t.Args {
			s = s.Union(regReads(x))
		}
		return s
	case *ir.Call:
		s := regReads(t.Fn)
		for _, x := range t.Args {
			s = s.Union(regReads(x))
		}
		if t.CallCC || t.Tail {
			s = s.Add(retReg)
		}
		return s
	case *ir.MakeClosure:
		s := regset.Empty
		for _, x := range t.Free {
			s = s.Union(regReads(x))
		}
		return s
	case *ir.Fix:
		s := regReads(t.Body)
		for _, c := range t.Closures {
			s = s.Union(regReads(c))
		}
		return s
	case *ir.Save:
		return regReads(t.Body)
	default:
		panic(fmt.Sprintf("codegen: regReads: unknown expression %T", e))
	}
}

// walkCall handles pass 1 at a call site: shuffle planning, liveness,
// restore analysis, save-set synthesis, and strategy annotations.
func (a *analyzer) walkCall(t *ir.Call, after flow) (flow, synth) {
	cfg := a.cg.opts.Config
	effTail := t.Tail && !t.CallCC
	if t.Tail && t.CallCC {
		// A tail (call/cc f) is emitted as a non-tail capture followed
		// by a return, so ret is live and referenced after it.
		after = flow{live: after.live.Add(retReg), refs: after.refs.Add(retReg)}
	}
	if effTail {
		after = flow{} // nothing is live after a tail transfer
	}
	t.LiveAfter = after.live
	t.RefsAfter = after.refs

	// Build the shuffle problem: register arguments plus the operator
	// (targeting cp).
	nreg := len(t.Args)
	if nreg > cfg.ArgRegs {
		nreg = cfg.ArgRegs
	}
	sargs := make([]core.ShuffleArg, 0, nreg+1)
	exprs := make([]ir.Expr, 0, nreg+1)
	for i := 0; i < nreg; i++ {
		sargs = append(sargs, core.ShuffleArg{
			Target:  cfg.ArgReg(i),
			Reads:   regReads(t.Args[i]),
			Complex: ir.HasCalls(t.Args[i]),
		})
		exprs = append(exprs, t.Args[i])
	}
	sargs = append(sargs, core.ShuffleArg{
		Target:  cpReg,
		Reads:   regReads(t.Fn),
		Complex: ir.HasCalls(t.Fn),
	})
	exprs = append(exprs, t.Fn)

	// Free argument registers usable as shuffle temporaries: not
	// targeted by this call and not read by any argument.
	freeTemps := regset.Empty
	for i := nreg; i < cfg.ArgRegs; i++ {
		freeTemps = freeTemps.Add(cfg.ArgReg(i))
	}
	for _, sa := range sargs {
		freeTemps = freeTemps.Minus(sa.Reads)
	}

	var plan core.Plan
	if a.cg.opts.Shuffle == ShuffleNaive {
		plan = core.NaiveShuffle(sargs, freeTemps)
	} else {
		plan = core.GreedyShuffle(sargs, freeTemps)
	}
	t.ShuffleArgs = sargs
	t.Plan = plan

	st := &a.cg.stats
	st.CallSites++
	if plan.HadCycle {
		st.CyclicCallSites++
	}
	st.ShuffleTemps += plan.SimpleTemps
	if a.cg.opts.ComputeShuffleStats {
		opt := core.OptimalSimpleTemps(sargs)
		st.OptimalTemps += opt
		if plan.SimpleTemps == opt {
			st.SitesOptimal++
		} else {
			st.SitesSuboptimal++
			if extra := plan.SimpleTemps - opt; extra > st.ExtraTempsWorst {
				st.ExtraTempsWorst = extra
			}
		}
	}

	// The emission order of the argument expressions: complex stack
	// arguments (to temps), simple stack arguments (stored or staged
	// before the shuffle can clobber the registers they read), then the
	// shuffle plan's steps.
	order := make([]ir.Expr, 0, len(t.Args)+1)
	for i := cfg.ArgRegs; i < len(t.Args); i++ {
		if ir.HasCalls(t.Args[i]) {
			order = append(order, t.Args[i])
		}
	}
	for i := cfg.ArgRegs; i < len(t.Args); i++ {
		if !ir.HasCalls(t.Args[i]) {
			order = append(order, t.Args[i])
		}
	}
	for _, step := range plan.Steps {
		order = append(order, exprs[step.Arg])
	}

	seed := flow{live: t.LiveAfter}
	if effTail || t.CallCC {
		// The tail transfer passes ret through; the capture reads ret.
		seed.live = seed.live.Add(retReg)
		seed.refs = seed.refs.Add(retReg)
	}
	before, argsS := a.walkOrdered(order, seed)

	s := argsS
	if !effTail {
		s = seqSynth(argsS, synth{
			sets:   core.CallSets(t.LiveAfter),
			simple: core.SimpleCall(t.LiveAfter),
			ulive:  t.LiveAfter,
		})
	}

	// Late-save strategy: save the live registers right before the call.
	// The saves read those registers, which counts as a reference for
	// the restore analysis. When every path through the argument
	// evaluation itself performs a non-tail call, that nested call's own
	// late saves cover a superset of this call's (liveness only grows
	// from the nested call back toward this one, and a register shares
	// its save slot everywhere in the procedure), so saving here would
	// emit stores that are overwritten before they can be read. The
	// coverage test uses the §2.1.1 one-set S[E], whose plain branch
	// intersection matches how pass 2 merges its saved-register state at
	// joins (S_t/S_f's vacuous-path refinement would overclaim here).
	if a.cg.opts.Saves == SaveLate && !effTail {
		t.LateSaves = t.LiveAfter
		if t.LiveAfter.SubsetOf(argsS.simple.S) {
			t.LateSaves = regset.Empty
		} else {
			before.refs = before.refs.Union(t.LateSaves)
			before.live = before.live.Union(t.LateSaves)
		}
	} else {
		t.LateSaves = regset.Empty
	}

	return before, s
}
