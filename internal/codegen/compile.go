package codegen

import (
	"fmt"
	"maps"
	"os"

	"repro/internal/ir"
	"repro/internal/prim"
	"repro/internal/sexp"
	"repro/internal/vm"
)

// codegen holds program-wide compilation state.
type codegen struct {
	opts   Options
	code   []vm.Instr
	consts []prim.Value
	// constIdx dedups comparable constants.
	constIdx map[prim.Value]int
	prims    []*prim.Def
	primIdx  map[*prim.Def]int
	unspec   int
	stats    Stats
	shuffles []vm.ShuffleRecord
	procs    []vm.ProcInfo
}

// Compile lowers an IR program to VM code under the given options. The
// IR is annotated in place (variable locations, shuffle plans, save
// sets), so a fresh IR must be built per compilation.
func Compile(prog *ir.Program, opts Options) (*vm.Program, Stats, error) {
	pre, err := NewPrefix(nil, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return pre.Link(prog)
}

// A Prefix is the code generator's state after emitting the first
// procedures of a program (the prelude's): the code from address 0,
// the constant and primitive pools, the shuffle records and the Stats.
// The allocator is intraprocedural, so those procedures compile the
// same whatever follows them, and a program whose first procedures
// they are is compiled by resuming from a copy of this state (Link). A
// Prefix is immutable, and safe for concurrent use.
type Prefix struct {
	cg codegen
}

// NewPrefix emits procs as a program's first procedures under opts,
// annotating them in place.
func NewPrefix(procs []*ir.Proc, opts Options) (*Prefix, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	pre := &Prefix{cg: codegen{
		opts:     opts,
		constIdx: map[prim.Value]int{},
		primIdx:  map[*prim.Def]int{},
		unspec:   -1,
	}}
	pre.cg.emit(vm.Instr{Op: vm.OpHalt}) // code[0]: where main returns
	if err := pre.cg.emitProcs(procs); err != nil {
		return nil, err
	}
	return pre, nil
}

// Link compiles prog, whose first procedures are the ones the prefix
// was built from, under the prefix's options: it emits only the
// remaining procedures, after the prefix's code. The result equals
// Compile(prog, opts) and shares nothing with the prefix or with any
// other linked program.
func (pre *Prefix) Link(prog *ir.Program) (*vm.Program, Stats, error) {
	cg := pre.cg.clone()
	if err := cg.emitProcs(prog.Procs[len(cg.procs):]); err != nil {
		return nil, Stats{}, err
	}
	cg.stats.Instructions = len(cg.code)

	constMutable := make([]bool, len(cg.consts))
	for i, c := range cg.consts {
		constMutable[i] = isMutableConst(c)
	}

	out := &vm.Program{
		Code:         cg.code,
		Consts:       cg.consts,
		ConstMutable: constMutable,
		Prims:        cg.prims,
		Procs:        cg.procs,
		MainIndex:    prog.MainIndex,
		GlobalNames:  prog.GlobalNames,
		PrimGlobals:  prog.PrimGlobals,
		Config:       cg.opts.Config,
		Shuffles:     cg.shuffles,
	}
	return out, cg.stats, nil
}

// Program returns the prefix's own procedures as a program with no main
// (MainIndex -1): its code, pools, procedure table and shuffle records,
// with globalNames, the global table its procedures were converted
// against. It checks the prefix apart from any program linked after it,
// and shares nothing with the prefix.
func (pre *Prefix) Program(globalNames []sexp.Symbol) *vm.Program {
	cg := pre.cg.clone()
	return &vm.Program{
		Code:        cg.code,
		Consts:      cg.consts,
		Prims:       cg.prims,
		Procs:       cg.procs,
		MainIndex:   -1,
		GlobalNames: globalNames,
		Config:      cg.opts.Config,
		Shuffles:    cg.shuffles,
	}
}

// emitProcs compiles procs in order, appending their code and metadata.
// An allocator panic becomes an error.
func (cg *codegen) emitProcs(procs []*ir.Proc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if os.Getenv("CODEGEN_DEBUG") != "" {
				panic(r)
			}
			err = fmt.Errorf("codegen: internal error: %v", r)
		}
	}()
	for _, p := range procs {
		entry, err := cg.emitProc(p)
		if err != nil {
			return err
		}
		cg.procs = append(cg.procs, vm.ProcInfo{
			Name:           p.Name,
			Entry:          entry,
			NArgs:          len(p.Params),
			NFree:          p.NFree,
			SyntacticLeaf:  p.SyntacticLeaf,
			CallInevitable: p.CallInevitable,
		})
		cg.stats.Procs++
		if p.SyntacticLeaf {
			cg.stats.SyntacticLeaves++
		}
		if p.CallInevitable {
			cg.stats.CallInevitable++
		}
	}
	return nil
}

// clone copies the state deeply enough that emitting into the copy,
// or writing to any part of the program it produces, leaves cg alone.
func (cg *codegen) clone() *codegen {
	c := *cg
	// Leave room for the linked program's own code.
	c.code = make([]vm.Instr, len(cg.code), 2*len(cg.code))
	copy(c.code, cg.code)
	nregs := 0
	for _, in := range cg.code {
		nregs += len(in.Regs)
	}
	regs := make([]int, 0, nregs)
	for i, in := range cg.code {
		if in.Regs != nil {
			regs = append(regs, in.Regs...)
			c.code[i].Regs = regs[len(regs)-len(in.Regs) : len(regs) : len(regs)]
		}
	}
	c.consts = append([]prim.Value(nil), cg.consts...)
	c.constIdx = maps.Clone(cg.constIdx)
	c.prims = append([]*prim.Def(nil), cg.prims...)
	c.primIdx = maps.Clone(cg.primIdx)
	c.procs = append([]vm.ProcInfo(nil), cg.procs...)
	c.shuffles = append([]vm.ShuffleRecord(nil), cg.shuffles...)
	nassigns := 0
	for _, r := range cg.shuffles {
		nassigns += len(r.Assigns)
	}
	assigns := make([]vm.ShuffleAssign, 0, nassigns)
	for i, r := range cg.shuffles {
		if r.Assigns != nil {
			assigns = append(assigns, r.Assigns...)
			c.shuffles[i].Assigns = assigns[len(assigns)-len(r.Assigns) : len(assigns) : len(assigns)]
		}
	}
	return &c
}

func (cg *codegen) emit(in vm.Instr) { cg.code = append(cg.code, in) }

func (cg *codegen) constIndex(v prim.Value) int {
	if comparableConst(v) {
		if i, ok := cg.constIdx[v]; ok {
			return i
		}
	}
	i := len(cg.consts)
	cg.consts = append(cg.consts, v)
	if comparableConst(v) {
		cg.constIdx[v] = i
	}
	return i
}

func (cg *codegen) unspecIndex() int {
	if cg.unspec < 0 {
		cg.unspec = cg.constIndex(prim.Unspecified)
	}
	return cg.unspec
}

func (cg *codegen) primIndex(d *prim.Def) int {
	if i, ok := cg.primIdx[d]; ok {
		return i
	}
	i := len(cg.prims)
	cg.prims = append(cg.prims, d)
	cg.primIdx[d] = i
	return i
}

// comparableConst reports whether v can key the dedup map: everything
// except pairs and vectors, which are mutable (each quote evaluation
// must yield fresh structure, so sharing a pool slot is fine but the
// Value contains pointers that defeat by-value dedup anyway).
func comparableConst(v prim.Value) bool {
	return !isMutableConst(v)
}

func isMutableConst(v prim.Value) bool {
	if _, ok := v.Pair(); ok {
		return true
	}
	_, ok := v.Vector()
	return ok
}
