package verify

// Witness reconstruction: a reported violation carries one concrete
// static path from the procedure entry to the offending instruction
// along which the cell is in the bad state. The searches are
// internal/dataflow's (Graph.CellPath, Graph.WitnessPath) over the
// procedure's CFG.

import "repro/internal/vm"

// Cell states for the witness searches' single-cell simulation.
const (
	cUndef uint8 = iota
	cDef
	cClob
	// nCellStates is the size of the simulated state space.
	nCellStates = 3
)

// witnessReg finds a path on which register r arrives at pc in the
// given abstract state (aUndef or aClob).
func (pv *procVerifier) witnessReg(pc, r int, want absKind) []int {
	init := cUndef
	if r == vm.RegRet || r == vm.RegCP || pv.regDefinedAtEntry(r) {
		init = cDef
	}
	goal := cUndef
	if want == aClob {
		goal = cClob
	}
	return pv.g.CellPath(pc, init, goal, nCellStates, func(at int, k uint8) uint8 {
		e := pv.eff[at-pv.start]
		if e.Defs.Has(r) {
			return cDef
		}
		if e.Clobbers.Has(r) {
			return cClob
		}
		return k
	})
}

// regDefinedAtEntry reports whether the calling convention defines r on
// procedure entry (parameters and callee-saves; ret/cp handled by the
// caller).
func (pv *procVerifier) regDefinedAtEntry(r int) bool {
	nArgRegs := pv.info.NArgs
	if nArgRegs > pv.cfg.ArgRegs {
		nArgRegs = pv.cfg.ArgRegs
	}
	for i := 0; i < nArgRegs; i++ {
		if pv.cfg.ArgReg(i) == r {
			return true
		}
	}
	for i := 0; i < pv.cfg.CalleeSaveRegs; i++ {
		if pv.cfg.CalleeSaveReg(i) == r {
			return true
		}
	}
	return false
}

// witnessSlot finds a path on which frame slot sl arrives at pc unwritten.
func (pv *procVerifier) witnessSlot(pc, sl int) []int {
	init := cUndef
	if sl < pv.stackParams {
		init = cDef
	}
	return pv.g.CellPath(pc, init, cUndef, nCellStates, func(at int, k uint8) uint8 {
		for _, w := range pv.eff[at-pv.start].WriteSlots {
			if w == sl {
				return cDef
			}
		}
		return k
	})
}

// witnessOut finds a path on which outgoing slot o arrives at pc
// unwritten since the last call.
func (pv *procVerifier) witnessOut(pc, o int) []int {
	return pv.g.CellPath(pc, cUndef, cUndef, nCellStates, func(at int, k uint8) uint8 {
		e := pv.eff[at-pv.start]
		if e.IsCall {
			return cUndef
		}
		for _, w := range e.WriteOuts {
			if w == o {
				return cDef
			}
		}
		return k
	})
}

// witnessPath finds any shortest path from the entry to pc.
func (pv *procVerifier) witnessPath(target int) []int {
	return pv.g.WitnessPath(target)
}
