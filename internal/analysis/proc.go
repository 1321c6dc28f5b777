package analysis

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/regset"
	"repro/internal/vm"
)

// maxPasses bounds the backward liveness fixpoints. Procedure bodies
// are forward DAGs (the verifier reports backward jumps), so a couple
// of decreasing-address passes converge; the cap only guards malformed
// code, which is then skipped.
const maxPasses = dataflow.DefaultMaxPasses

// procAnalysis analyzes one procedure extent.
type procAnalysis struct {
	p       *vm.Program
	cfg     vm.Config
	cm      vm.CostModel
	info    vm.ProcInfo
	procIdx int
	start   int
	end     int
	frame   int
	nRegs   int
	g       *dataflow.Graph
	rep     *Report
	cost    *ProcCost
	// recs indexes the program's shuffle records that start in the
	// extent.
	recs []int

	// liveAfter answers the two liveness questions the waste checks
	// ask, per pc (indexed pc-start): after a save, is its slot live;
	// after a restore, is its register live.
	liveAfter []bool

	// shufflePC marks instructions counted as shuffle data movement,
	// for the cost scan's attribution.
	shufflePC map[int]bool
}

func newProcAnalysis(p *vm.Program, cm vm.CostModel, ext dataflow.Extent, rep *Report) *procAnalysis {
	g, err := dataflow.NewGraph(p, ext.Start, ext.End)
	if err != nil {
		return nil
	}
	entry := p.Code[ext.Start]
	if entry.Op != vm.OpEntry || entry.B < 0 {
		return nil
	}
	return &procAnalysis{
		p:         p,
		cfg:       p.Config,
		cm:        cm,
		info:      ext.Info,
		procIdx:   ext.Index,
		start:     ext.Start,
		end:       ext.End,
		frame:     entry.B,
		nRegs:     p.Config.NumRegs(),
		g:         g,
		rep:       rep,
		cost:      &rep.Procs[ext.Index],
		recs:      ext.Shuffles,
		shufflePC: map[int]bool{},
	}
}

func (pa *procAnalysis) run() {
	pa.cost.Analyzed = true
	pa.cost.Instructions = pa.end - pa.start
	pa.liveAfter = make([]bool, pa.end-pa.start)
	pa.regLiveness()
	pa.slotLiveness()
	pa.checkSavesAndRestores()
	pa.checkShuffles()
	pa.costScan()
}

func (pa *procAnalysis) report(f Finding) {
	f.Proc = pa.info.Name
	if f.PC >= 0 && f.PC < len(pa.p.Code) {
		f.Op = pa.p.Code[f.PC].Op
		f.Instr = pa.p.FormatInstr(pa.p.Code[f.PC])
	}
	pa.rep.Findings = append(pa.rep.Findings, f)
}

// csRegs is the callee-save register set: treated as read at every
// procedure exit, since the caller relies on their values (§2.4).
func (pa *procAnalysis) csRegs() regset.Set {
	var s regset.Set
	for i := 0; i < pa.cfg.CalleeSaveRegs; i++ {
		s = s.Add(pa.cfg.CalleeSaveReg(i))
	}
	return s
}

// regLiveProblem is backward may-liveness of registers: uses generate,
// defs and call clobbers kill, and every procedure exit reads the
// callee-saves (the caller relies on their values, §2.4).
type regLiveProblem struct {
	g  *dataflow.Graph
	cs regset.Set
}

func (rp regLiveProblem) New() regset.Set                      { return 0 }
func (rp regLiveProblem) Merge(dst, src regset.Set) regset.Set { return dst.Union(src) }

func (rp regLiveProblem) Transfer(pc int, out regset.Set) regset.Set {
	e := rp.g.Effects(pc)
	in := e.Uses.Union(out.Minus(e.Defs.Union(e.Clobbers)))
	if e.IsExit {
		in = in.Union(rp.cs)
	}
	return in
}

func (rp regLiveProblem) Eq(a, b regset.Set) bool { return a == b }

// regLiveness computes backward may-liveness of registers over the
// extent — r is live at pc iff some path from pc reads r before any
// instruction defines or destroys it — and records, after each
// restore, whether its register is live.
func (pa *procAnalysis) regLiveness() {
	rp := regLiveProblem{g: pa.g, cs: pa.csRegs()}
	dataflow.SolveBackward[regset.Set](pa.g, rp, maxPasses).Replay(func(pc int, out regset.Set) regset.Set {
		if in := pa.p.Code[pc]; in.Op == vm.OpLoadSlot && in.Kind == vm.KindRestore {
			pa.liveAfter[pc-pa.start] = out.Has(in.A)
		}
		return rp.Transfer(pc, out)
	})
}

// slotLiveProblem is backward may-liveness of frame slots: reads
// generate (tail-call stack arguments and prim slot operands count —
// vm.Effects.ReadSlots covers both), writes kill. States are bitsets
// over the frame.
type slotLiveProblem struct {
	g     *dataflow.Graph
	frame int
	words int
}

func (sp slotLiveProblem) New() []uint64 { return make([]uint64, sp.words) }

func (sp slotLiveProblem) Merge(dst, src []uint64) []uint64 {
	for w := range dst {
		dst[w] |= src[w]
	}
	return dst
}

func (sp slotLiveProblem) Transfer(pc int, out []uint64) []uint64 {
	e := sp.g.Effects(pc)
	for _, s := range e.WriteSlots {
		if s >= 0 && s < sp.frame {
			out[s/64] &^= 1 << (s % 64)
		}
	}
	for _, s := range e.ReadSlots {
		if s >= 0 && s < sp.frame {
			out[s/64] |= 1 << (s % 64)
		}
	}
	return out
}

func (sp slotLiveProblem) Eq(a, b []uint64) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}

// slotLiveness computes backward may-liveness of frame slots — s is
// live at pc iff some path from pc reads fp[s] before any instruction
// overwrites it — and records, after each save, whether its slot is
// live.
func (pa *procAnalysis) slotLiveness() {
	sp := slotLiveProblem{g: pa.g, frame: pa.frame, words: (pa.frame + 63) / 64}
	dataflow.SolveBackward[[]uint64](pa.g, sp, maxPasses).Replay(func(pc int, out []uint64) []uint64 {
		if in := pa.p.Code[pc]; in.Op == vm.OpStoreSlot && in.Kind == vm.KindSave && in.B >= 0 && in.B < pa.frame {
			pa.liveAfter[pc-pa.start] = out[in.B/64]&(1<<(in.B%64)) != 0
		}
		return sp.Transfer(pc, out)
	})
}

// checkSavesAndRestores scans the extent for the two liveness-based
// waste checks and accumulates the static site counts.
func (pa *procAnalysis) checkSavesAndRestores() {
	for pc := pa.start; pc < pa.end; pc++ {
		in := pa.p.Code[pc]
		switch {
		case in.Op == vm.OpStoreSlot && in.Kind == vm.KindSave:
			pa.cost.Saves++
			if in.B < 0 || in.B >= pa.frame {
				continue
			}
			if !pa.liveAfter[pc-pa.start] {
				pa.report(Finding{
					Kind: RedundantSave, PC: pc, Reg: in.A, Slot: in.B, CallPC: -1, Excess: 1,
					Msg: fmt.Sprintf("save of r%d into fp[%d] is never read on any path before the slot dies — a lazy save placement would omit it",
						in.A, in.B),
					Witness: pa.witnessThrough(pc, pa.slotDeathPath(pc, in.B)),
				})
			}
		case in.Op == vm.OpLoadSlot && in.Kind == vm.KindRestore:
			pa.cost.Restores++
			if !pa.liveAfter[pc-pa.start] {
				pa.report(Finding{
					Kind: DeadRestore, PC: pc, Reg: in.A, Slot: in.B, CallPC: -1, Excess: 1,
					Msg: fmt.Sprintf("restore of r%d from fp[%d] is redefined or destroyed on every path before any read — eager-restore overhead (§3)",
						in.A, in.B),
					Witness: pa.witnessThrough(pc, pa.regDeathPath(pc, in.A)),
				})
			}
		}
	}
}

// slotDeathPath finds a shortest path from pc to the point where the
// saved slot dies: the first overwrite of the slot, or a procedure
// exit. Because the slot is dead after pc, no path reads it first.
func (pa *procAnalysis) slotDeathPath(pc, slot int) []int {
	return pa.g.PathFrom(pc, func(q int) bool {
		if q == pc {
			return false
		}
		e := pa.g.Effects(q)
		for _, s := range e.WriteSlots {
			if s == slot {
				return true
			}
		}
		return e.IsExit && !e.FallsThrough && e.Jump < 0
	}, nil)
}

// regDeathPath finds a shortest path from pc to the point where the
// restored register dies: the first redefinition or call clobber, or a
// procedure exit.
func (pa *procAnalysis) regDeathPath(pc, r int) []int {
	return pa.g.PathFrom(pc, func(q int) bool {
		if q == pc {
			return false
		}
		e := pa.g.Effects(q)
		return e.Defs.Has(r) || e.Clobbers.Has(r) || (e.IsExit && !e.FallsThrough && e.Jump < 0)
	}, nil)
}

// witnessThrough joins the entry→pc witness with the pc→death tail.
func (pa *procAnalysis) witnessThrough(pc int, tail []int) []int {
	path := pa.g.WitnessPath(pc)
	if len(tail) > 1 {
		path = append(path, tail[1:]...)
	}
	return path
}
