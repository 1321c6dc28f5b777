// Package ir defines the compiler's intermediate representation: a
// program as a set of first-order procedures produced by closure
// conversion. It is the richer production counterpart of the paper's §2
// simplified expression language — every construct the register
// allocator reasons about (calls, sequencing, conditionals, binders,
// constants true and false) is present, plus the machinery constructs
// (primitive applications, closure records, global cells) that the
// simplified language abstracts away.
//
// The register allocator (internal/codegen) annotates IR nodes in place:
// variable locations, call liveness, shuffle plans, and save sets.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/prim"
	"repro/internal/regset"
	"repro/internal/sexp"
)

// LocKind distinguishes variable locations.
type LocKind int

const (
	// LocUnassigned means the allocator has not yet placed the variable.
	LocUnassigned LocKind = iota
	// LocReg places the variable in a machine register.
	LocReg
	// LocSlot places the variable in a frame slot (stack).
	LocSlot
)

// Loc is a variable's home location.
type Loc struct {
	Kind  LocKind
	Index int // register number or frame-slot index
}

func (l Loc) String() string {
	switch l.Kind {
	case LocReg:
		return fmt.Sprintf("r%d", l.Index)
	case LocSlot:
		return fmt.Sprintf("fp[%d]", l.Index)
	default:
		return "?"
	}
}

// Var is an IR variable (parameter or let-bound local). The allocator
// fills Loc and, when the variable ever needs saving, SaveSlot.
type Var struct {
	Name string
	Loc  Loc
	// SaveSlot is the frame slot that holds the variable's saved value
	// across calls (or, in callee-save mode, the previous contents of
	// its callee-save register); -1 until allocated.
	SaveSlot int
	// CSReg is the callee-save register shadowing this variable in the
	// §2.4 callee-save mode; -1 when unused.
	CSReg int
	// CrossCall marks variables that may be live across a call (the
	// callee-save mode assigns only these to callee-save registers).
	CrossCall bool
}

func (v *Var) String() string {
	if v.Loc.Kind == LocUnassigned {
		return v.Name
	}
	return v.Name + ":" + v.Loc.String()
}

// Expr is an IR expression.
type Expr interface{ irExpr() }

// Const is a constant (quoted data or literal).
type Const struct{ Value prim.Value }

// VarRef reads a local variable.
type VarRef struct{ Var *Var }

// FreeRef reads the running closure's Index-th free-variable slot (via
// the closure-pointer register).
type FreeRef struct {
	Index int
	Name  string
}

// GlobalRef reads a global cell.
type GlobalRef struct {
	Index int
	Name  sexp.Symbol
}

// GlobalSet writes a global cell.
type GlobalSet struct {
	Index int
	Name  sexp.Symbol
	Rhs   Expr
	calls callMemo
}

// If is a conditional.
type If struct {
	Test, Then, Else Expr
	// BranchSaves are the lazily-placed save sets wrapped around the two
	// arms by the save-placement pass (empty when unused).
	ThenSaves regset.Set
	ElseSaves regset.Set
	// PredictThen, when branch prediction is enabled, is the compiler's
	// static guess that the then-arm executes (the §6 extension: paths
	// without calls are predicted taken).
	PredictThen *bool
	// LiveAfter is the set of registers live after the whole if — used
	// by the lazy-restore baseline to restore registers "live on exit
	// from the enclosing save region" (Figure 2c).
	LiveAfter regset.Set
	calls     callMemo
}

// Seq evaluates expressions left to right, yielding the last value.
type Seq struct {
	Exprs []Expr
	calls callMemo
}

// Bind introduces one local variable scoped over Body. (Multi-binding
// lets are lowered to chains of Binds; alpha-renaming makes this
// semantics-preserving.)
type Bind struct {
	Var  *Var
	Rhs  Expr
	Body Expr
	// SaveVar is set by the save-placement pass when the variable must
	// be saved immediately at its definition point (a call is inevitable
	// while it is live).
	SaveVar bool
	calls   callMemo
}

// PrimCall applies a primitive (open-coded; never a procedure call).
type PrimCall struct {
	Def   *prim.Def
	Args  []Expr
	calls callMemo
}

// Call invokes a procedure value.
type Call struct {
	Fn   Expr
	Args []Expr
	Tail bool
	// CallCC marks (call/cc f): the VM captures the continuation and
	// passes it as f's single argument.
	CallCC bool

	// Annotations produced by the allocator's analysis pass:

	// LiveAfter is the set of registers live after the call (the
	// registers whose variables are referenced later).
	LiveAfter regset.Set
	// RefsAfter is the set of registers possibly referenced after the
	// call before the next call (drives eager restores).
	RefsAfter regset.Set
	// Plan is the argument-shuffle schedule; ShuffleArgs[i] describes
	// Args[i] (with the operator appended last, targeting cp).
	Plan        core.Plan
	ShuffleArgs []core.ShuffleArg
	// LateSaves is used by the late-save strategy: registers saved
	// immediately before this call.
	LateSaves regset.Set
	calls     callMemo
}

// MakeClosure allocates a closure for procedure ProcIndex capturing the
// values of Free (VarRef or FreeRef expressions) in order.
type MakeClosure struct {
	ProcIndex int
	Free      []Expr
}

// Fix binds mutually recursive closures. All right-hand sides are
// closures; free references among the Vars are patched after all the
// closures are allocated, avoiding assignment conversion's boxes for the
// common named-let/internal-define case.
type Fix struct {
	Vars     []*Var
	Closures []*MakeClosure
	Body     Expr
	// SaveVars mirrors Bind.SaveVar per variable.
	SaveVars []bool
	calls    callMemo
}

// Save wraps Body with a register save set (the lazy and early
// strategies place these; the code generator eliminates saves already
// performed by an enclosing Save).
type Save struct {
	Regs  regset.Set
	Body  Expr
	calls callMemo
}

func (*Const) irExpr()       {}
func (*VarRef) irExpr()      {}
func (*FreeRef) irExpr()     {}
func (*GlobalRef) irExpr()   {}
func (*GlobalSet) irExpr()   {}
func (*If) irExpr()          {}
func (*Seq) irExpr()         {}
func (*Bind) irExpr()        {}
func (*PrimCall) irExpr()    {}
func (*Call) irExpr()        {}
func (*MakeClosure) irExpr() {}
func (*Fix) irExpr()         {}
func (*Save) irExpr()        {}

// Proc is a first-order procedure.
type Proc struct {
	Name   string
	Params []*Var
	// NFree is the number of free-variable slots in the closure record.
	NFree     int
	FreeNames []string
	Body      Expr

	// Static classification for the dynamic call-graph statistics
	// (Table 2), filled by the allocator:

	// SyntacticLeaf: the body contains no non-tail calls.
	SyntacticLeaf bool
	// CallInevitable: every path through the body makes a non-tail call
	// (detected via the ret-register technique of §2.4).
	CallInevitable bool
}

// Program is a closure-converted program.
type Program struct {
	// Procs[MainIndex] is the nullary entry procedure.
	Procs     []*Proc
	MainIndex int
	// GlobalNames[i] names global cell i. PrimGlobals[i] is non-nil when
	// the cell initially holds that primitive as a first-class value.
	GlobalNames []sexp.Symbol
	PrimGlobals []*prim.Def
	// UserGlobals marks cells that the program defines or assigns;
	// primitive calls through such cells cannot be open-coded.
	UserGlobals []bool
}

// HasCalls reports whether e contains a non-tail call (used for
// syntactic-leaf classification and for simple/complex argument
// partitioning in the shuffler). The answer is computed once per node,
// bottom-up, on the first query and cached in the node, so every later
// query is O(1). Closure conversion builds the IR once and no pass
// restructures it afterwards, so the cache cannot go stale. A query
// may write the cache, so one IR is queried from one goroutine at a
// time; each compilation owns its IR.
func HasCalls(e Expr) bool {
	var memo *callMemo
	switch t := e.(type) {
	case *Const, *VarRef, *FreeRef, *GlobalRef, *MakeClosure:
		return false
	case *GlobalSet:
		memo = &t.calls
	case *If:
		memo = &t.calls
	case *Seq:
		memo = &t.calls
	case *Bind:
		memo = &t.calls
	case *PrimCall:
		memo = &t.calls
	case *Call:
		memo = &t.calls
	case *Fix:
		memo = &t.calls
	case *Save:
		memo = &t.calls
	default:
		panic(fmt.Sprintf("ir: unknown expression %T", e))
	}
	if *memo == callsUnknown {
		*memo = callsNo
		if containsCall(e) {
			*memo = callsYes
		}
	}
	return *memo == callsYes
}

// callMemo caches HasCalls in a composite node.
type callMemo uint8

const (
	callsUnknown callMemo = iota
	callsNo
	callsYes
)

// containsCall answers HasCalls for a composite node from its children.
func containsCall(e Expr) bool {
	switch t := e.(type) {
	case *GlobalSet:
		return HasCalls(t.Rhs)
	case *If:
		return HasCalls(t.Test) || HasCalls(t.Then) || HasCalls(t.Else)
	case *Seq:
		return anyHasCalls(t.Exprs)
	case *Bind:
		return HasCalls(t.Rhs) || HasCalls(t.Body)
	case *PrimCall:
		return anyHasCalls(t.Args)
	case *Call:
		// A tail call is a jump (paper footnote 1), but calls nested in
		// its argument expressions still count.
		return !t.Tail || HasCalls(t.Fn) || anyHasCalls(t.Args)
	case *Fix:
		return HasCalls(t.Body)
	case *Save:
		return HasCalls(t.Body)
	}
	panic(fmt.Sprintf("ir: unknown expression %T", e))
}

func anyHasCalls(es []Expr) bool {
	for _, x := range es {
		if HasCalls(x) {
			return true
		}
	}
	return false
}

// Print renders an expression for dumps and tests.
func Print(e Expr) string {
	var b strings.Builder
	printExpr(&b, e)
	return b.String()
}

// PrintProc renders a whole procedure.
func PrintProc(p *Proc) string {
	var b strings.Builder
	b.WriteString("(proc ")
	b.WriteString(p.Name)
	b.WriteString(" (")
	for i, v := range p.Params {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	b.WriteString(") ")
	printExpr(&b, p.Body)
	b.WriteByte(')')
	return b.String()
}

func printExpr(b *strings.Builder, e Expr) {
	switch t := e.(type) {
	case *Const:
		b.WriteString(prim.WriteString(t.Value))
	case *VarRef:
		b.WriteString(t.Var.String())
	case *FreeRef:
		fmt.Fprintf(b, "(free %d %s)", t.Index, t.Name)
	case *GlobalRef:
		fmt.Fprintf(b, "(global %s)", t.Name)
	case *GlobalSet:
		fmt.Fprintf(b, "(global-set! %s ", t.Name)
		printExpr(b, t.Rhs)
		b.WriteByte(')')
	case *If:
		b.WriteString("(if ")
		printExpr(b, t.Test)
		b.WriteByte(' ')
		printWrapped(b, t.ThenSaves, t.Then)
		b.WriteByte(' ')
		printWrapped(b, t.ElseSaves, t.Else)
		b.WriteByte(')')
	case *Seq:
		b.WriteString("(seq")
		for _, x := range t.Exprs {
			b.WriteByte(' ')
			printExpr(b, x)
		}
		b.WriteByte(')')
	case *Bind:
		b.WriteString("(bind ")
		if t.SaveVar {
			b.WriteString("save! ")
		}
		b.WriteString(t.Var.String())
		b.WriteByte(' ')
		printExpr(b, t.Rhs)
		b.WriteByte(' ')
		printExpr(b, t.Body)
		b.WriteByte(')')
	case *PrimCall:
		fmt.Fprintf(b, "(%%%s", t.Def.Name)
		for _, x := range t.Args {
			b.WriteByte(' ')
			printExpr(b, x)
		}
		b.WriteByte(')')
	case *Call:
		if t.Tail {
			b.WriteString("(tailcall ")
		} else {
			b.WriteString("(call ")
		}
		if t.CallCC {
			b.WriteString("call/cc ")
		}
		printExpr(b, t.Fn)
		for _, x := range t.Args {
			b.WriteByte(' ')
			printExpr(b, x)
		}
		b.WriteByte(')')
	case *MakeClosure:
		fmt.Fprintf(b, "(closure %d", t.ProcIndex)
		for _, x := range t.Free {
			b.WriteByte(' ')
			printExpr(b, x)
		}
		b.WriteByte(')')
	case *Fix:
		b.WriteString("(fix (")
		for i, v := range t.Vars {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte('[')
			b.WriteString(v.String())
			b.WriteByte(' ')
			printExpr(b, t.Closures[i])
			b.WriteByte(']')
		}
		b.WriteString(") ")
		printExpr(b, t.Body)
		b.WriteByte(')')
	case *Save:
		fmt.Fprintf(b, "(save %s ", t.Regs)
		printExpr(b, t.Body)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "#<unknown %T>", e)
	}
}

func printWrapped(b *strings.Builder, saves regset.Set, e Expr) {
	if saves.IsEmpty() {
		printExpr(b, e)
		return
	}
	fmt.Fprintf(b, "(save %s ", saves)
	printExpr(b, e)
	b.WriteByte(')')
}
