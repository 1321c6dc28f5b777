package vm

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/prim"
	"repro/internal/sexp"
)

// Op is an instruction opcode.
type Op uint8

// The instruction set. Operand meanings are documented per opcode; A, B
// and C are small integers (register numbers, slot indices, code
// addresses, pool indices).
const (
	// OpHalt stops the machine; the program result is in rv.
	OpHalt Op = iota
	// OpEntry begins a procedure: A = expected argument count,
	// B = frame size in slots. Checks arity and reserves stack.
	OpEntry
	// OpMove copies register B to register A.
	OpMove
	// OpLoadConst loads constant pool entry B into register A.
	OpLoadConst
	// OpLoadGlobal loads global cell B into register A.
	OpLoadGlobal
	// OpStoreGlobal stores register A into global cell B.
	OpStoreGlobal
	// OpLoadSlot loads frame slot B into register A (a stack reference).
	OpLoadSlot
	// OpStoreSlot stores register A into frame slot B (a stack reference).
	OpStoreSlot
	// OpStoreOut stores register A into outgoing-argument slot B — slot B
	// of the *callee* frame that begins at fp+C, where C is the caller
	// frame size (a stack reference).
	OpStoreOut
	// OpPrim applies primitive pool entry B to the operands encoded in
	// Regs and stores the result in register A. Negative Regs entries
	// denote frame slots (^slot), each counting as a stack reference.
	OpPrim
	// OpClosure allocates a closure of procedure B capturing the values
	// in Regs (same register/slot encoding as OpPrim) into register A.
	OpClosure
	// OpClosurePatch stores register C into free-variable slot B of the
	// closure in register A (mutual-recursion patching for fix).
	OpClosurePatch
	// OpFreeRef loads free-variable slot B of the running closure (in
	// cp) into register A.
	OpFreeRef
	// OpJump continues at address A.
	OpJump
	// OpBranchFalse jumps to address B when register A is #f. Predict
	// carries the static branch prediction (+1 predicted taken, -1
	// predicted not taken, 0 unpredicted).
	OpBranchFalse
	// OpCall invokes the procedure in cp with A arguments; B is the
	// caller's frame size. Sets ret to the return point and advances fp.
	OpCall
	// OpTailCall invokes the procedure in cp with A arguments reusing
	// the current frame (a jump; ret and fp are unchanged).
	OpTailCall
	// OpCallCC captures the current continuation, passes it as the
	// single argument to the procedure in cp; B is the caller's frame
	// size.
	OpCallCC
	// OpReturn returns to the point in ret, with the result in rv.
	OpReturn
)

// SlotKind classifies stack references for the diagnostic breakdown.
type SlotKind uint8

const (
	// KindOther covers uncategorized slot traffic.
	KindOther SlotKind = iota
	// KindSave is a register save (StoreSlot) placed by the allocator.
	KindSave
	// KindRestore is a register restore (LoadSlot) placed by pass 2.
	KindRestore
	// KindArg is argument traffic (stack-passed parameters, in or out).
	KindArg
	// KindTemp is shuffle/evaluation temporary traffic.
	KindTemp
	// KindVar is a stack-homed variable access (baseline configs).
	KindVar
	// NumSlotKinds is the number of SlotKind values; counters and the
	// static analyzer size their per-kind arrays with it.
	NumSlotKinds = int(KindVar) + 1
)

func (k SlotKind) String() string {
	switch k {
	case KindSave:
		return "save"
	case KindRestore:
		return "restore"
	case KindArg:
		return "arg"
	case KindTemp:
		return "temp"
	case KindVar:
		return "var"
	default:
		return "other"
	}
}

// Instr is one machine instruction.
type Instr struct {
	Op      Op
	A, B, C int
	// Regs encodes OpPrim/OpClosure operands: value >= 0 is a register,
	// value < 0 is frame slot ^value.
	Regs []int
	// Kind classifies slot traffic (slot opcodes only).
	Kind SlotKind
	// Predict is the static branch prediction for OpBranchFalse.
	Predict int8
}

// MaxFrame is the largest frame, in slots, a procedure may have: the
// code generator refuses a procedure that needs more, and the
// translation validator reports one as a bad frame.
const MaxFrame = 1 << 16

// Program is a complete compiled program.
type Program struct {
	Code   []Instr
	Consts []prim.Value
	// ConstMutable marks constants containing pairs or vectors, which
	// are copied on each load so compiled code agrees with the reference
	// interpreter about quoted-constant aliasing.
	ConstMutable []bool
	Prims        []*prim.Def
	Procs        []ProcInfo
	MainIndex    int
	GlobalNames  []sexp.Symbol
	PrimGlobals  []*prim.Def
	// Config is the register layout the code was compiled for.
	Config Config
	// Shuffles documents each call site's argument shuffle as a parallel
	// assignment so the translation validator (internal/verify) can check
	// the emitted move sequence against the allocator's intent.
	Shuffles []ShuffleRecord

	// The pre-decoded threaded form (exec.go), built once on first run
	// and shared by every Machine executing this program. Because of
	// this cache, Code must not be mutated after a Machine has run the
	// program (static tools that corrupt Code for negative tests must
	// do so before the first run, or build a fresh Program).
	engOnce sync.Once
	eng     *engineCode
}

// ShuffleAssign is one transfer a call's argument shuffle must realize:
// after the shuffle, register Target must hold the value the source
// cell (register Src, or frame slot Src when SrcIsSlot) held when the
// call sequence began.
type ShuffleAssign struct {
	Target    int
	Src       int
	SrcIsSlot bool
}

// ShuffleRecord describes one call site's parallel assignment: the
// instructions in [StartPC, CallPC) must implement Assigns as a
// simultaneous substitution. Only simple (variable-reference) arguments
// are recorded; complex arguments have no pre-existing source cell.
type ShuffleRecord struct {
	StartPC int
	CallPC  int
	Assigns []ShuffleAssign
}

// ProcInfo is per-procedure metadata.
type ProcInfo struct {
	Name  string
	Entry int
	NArgs int
	NFree int
	// SyntacticLeaf: the body contains no non-tail calls (Table 2).
	SyntacticLeaf bool
	// CallInevitable: every path through the body calls (Table 2's
	// "syntactic internal nodes").
	CallInevitable bool
}

// globalName, primName and procName render pool references defensively
// (out-of-range indices print as "?" instead of panicking).
func (p *Program) globalName(i int) string {
	if i < 0 || i >= len(p.GlobalNames) {
		return "?"
	}
	return string(p.GlobalNames[i])
}

func (p *Program) primName(i int) string {
	if i < 0 || i >= len(p.Prims) {
		return "?"
	}
	return string(p.Prims[i].Name)
}

func (p *Program) procName(i int) string {
	if i < 0 || i >= len(p.Procs) {
		return "?"
	}
	return p.Procs[i].Name
}

// Disassemble renders the program's code for dumps and tests.
func (p *Program) Disassemble() string {
	var b strings.Builder
	procAt := map[int]string{}
	for _, pi := range p.Procs {
		procAt[pi.Entry] = pi.Name
	}
	for i, in := range p.Code {
		if name, ok := procAt[i]; ok {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "%5d  %s\n", i, p.FormatInstr(in))
	}
	return b.String()
}

// FormatInstr renders one instruction.
func (p *Program) FormatInstr(in Instr) string {
	reg := func(r int) string {
		switch r {
		case RegRet:
			return "ret"
		case RegCP:
			return "cp"
		case RegRV:
			return "rv"
		default:
			return fmt.Sprintf("r%d", r)
		}
	}
	operand := func(r int) string {
		if IsSlotOperand(r) {
			return fmt.Sprintf("fp[%d]", SlotOperand(r))
		}
		return reg(r)
	}
	switch in.Op {
	case OpHalt:
		return "halt"
	case OpEntry:
		return fmt.Sprintf("entry args=%d frame=%d", in.A, in.B)
	case OpMove:
		return fmt.Sprintf("move %s <- %s", reg(in.A), reg(in.B))
	case OpLoadConst:
		v := "?"
		if in.B < len(p.Consts) {
			v = prim.WriteString(p.Consts[in.B])
		}
		return fmt.Sprintf("const %s <- %s", reg(in.A), v)
	case OpLoadGlobal:
		return fmt.Sprintf("gload %s <- %s", reg(in.A), p.globalName(in.B))
	case OpStoreGlobal:
		return fmt.Sprintf("gstore %s -> %s", reg(in.A), p.globalName(in.B))
	case OpLoadSlot:
		return fmt.Sprintf("load %s <- fp[%d] (%s)", reg(in.A), in.B, in.Kind)
	case OpStoreSlot:
		return fmt.Sprintf("store %s -> fp[%d] (%s)", reg(in.A), in.B, in.Kind)
	case OpStoreOut:
		return fmt.Sprintf("storeout %s -> out[%d] (%s)", reg(in.A), in.B, in.Kind)
	case OpPrim:
		var args []string
		for _, r := range in.Regs {
			args = append(args, operand(r))
		}
		return fmt.Sprintf("prim %s <- %s(%s)", reg(in.A), p.primName(in.B), strings.Join(args, " "))
	case OpClosure:
		var args []string
		for _, r := range in.Regs {
			args = append(args, operand(r))
		}
		return fmt.Sprintf("closure %s <- %s[%s]", reg(in.A), p.procName(in.B), strings.Join(args, " "))
	case OpClosurePatch:
		return fmt.Sprintf("patch %s.free[%d] <- %s", reg(in.A), in.B, reg(in.C))
	case OpFreeRef:
		return fmt.Sprintf("free %s <- cp.free[%d]", reg(in.A), in.B)
	case OpJump:
		return fmt.Sprintf("jump %d", in.A)
	case OpBranchFalse:
		pred := ""
		if in.Predict > 0 {
			pred = " predict-taken"
		} else if in.Predict < 0 {
			pred = " predict-fall"
		}
		return fmt.Sprintf("brfalse %s -> %d%s", reg(in.A), in.B, pred)
	case OpCall:
		return fmt.Sprintf("call argc=%d frame=%d", in.A, in.B)
	case OpTailCall:
		return fmt.Sprintf("tailcall argc=%d", in.A)
	case OpCallCC:
		return fmt.Sprintf("callcc frame=%d", in.B)
	case OpReturn:
		return "return"
	default:
		return fmt.Sprintf("op%d A=%d B=%d C=%d", in.Op, in.A, in.B, in.C)
	}
}
