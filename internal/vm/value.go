package vm

import "repro/internal/prim"

// Closure is a compiled procedure paired with its free-variable values.
// It is an alias for prim.Closure: the type lives in prim so closure
// objects and their Free slices can come from the per-machine
// prim.Arena slabs (via Ctx.AllocClosure) under the same Recycle
// lifetime contract as pair cells. Engine code must allocate closures
// through m.ctx.AllocClosure, never with a literal — a reintroduced
// &Closure{...} allocates once per closure made, which
// TestSteadyStateAllocs fails on.
type Closure = prim.Closure

// PrimValue is a primitive as a first-class value (a global cell's
// initial content).
type PrimValue struct{ Def *prim.Def }

// SchemeProcedure marks PrimValue as a procedure.
func (*PrimValue) SchemeProcedure() {}

// RetAddr is a return point: the code address to continue at and the
// caller's frame pointer. It lives in the ret register and in save
// slots like any other value. Return points are normally packed into an
// immediate prim.Value (prim.MakeRet) and never allocate; this boxed
// form is the fallback for pc/fp values outside the packable range.
type RetAddr struct {
	PC int
	FP int
}

// Cont is a captured continuation: a snapshot of the stack up to the
// capturing frame, resumed by jumping to the capture site's return
// point. Continuations are fully re-entrant (the stack is copied both
// ways).
type Cont struct {
	Stack    []prim.Value
	FP       int
	ResumePC int
	// CSRegs snapshots the callee-save registers at capture; a resumed
	// continuation's code may hold variables there.
	CSRegs []prim.Value
	// Acts snapshots the activation side-stack so the Table 2
	// classification stays consistent across continuation invocation.
	Acts []actEntry
}

// SchemeProcedure marks Cont as a procedure.
func (*Cont) SchemeProcedure() {}

// poison is the sentinel stored in caller-save registers after a call
// when ValidateRestores is on; reading it traps, catching any missing
// restore.
type poison struct{}

// poisonVal is the shared boxed poison sentinel: poisoning sweeps run
// per call boundary, so they store one pre-boxed value instead of
// re-boxing at every register (the sentinel is stateless, so sharing
// is invisible).
var poisonVal = prim.ObjV(poison{})

// actEntry tracks one activation for the dynamic call-graph statistics.
type actEntry struct {
	proc     int32
	madeCall bool
}
