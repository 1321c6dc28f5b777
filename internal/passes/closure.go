package passes

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/prim"
	"repro/internal/sexp"
)

// ClosureConvert lowers an assignment-converted AST program into the
// first-order IR: each lambda becomes an ir.Proc whose free variables
// are captured in a closure record, letrecs of lambdas become ir.Fix,
// and calls to primitive names that the program does not shadow are
// open-coded as ir.PrimCall.
func ClosureConvert(p *ast.Program) (*ir.Program, error) {
	return (&Library{}).Link(p)
}

// A Library is the closure conversion of the first definitions of
// every program linked after it (the prelude): its procedures, the
// main-level code that installs them, and the global table the
// programs resolve their names against. Converting a program's
// remaining definitions and body after it (Link) gives the IR that
// ClosureConvert gives for the whole program, provided the program
// does not change what the library's conversion assumed (Links).
type Library struct {
	// Procs are the library's procedures; a linked program's Procs
	// begin with them.
	Procs []*ir.Proc
	// init is the main-level code of the library's definitions. The
	// allocator annotates IR in place, so Link gives each program its
	// own copy.
	init []ir.Expr
	// conv is the converter's state after the library, which Link
	// resumes from a copy of.
	conv closureConverter
}

// ConvertLibrary closure-converts defs (assignment-converted) as the
// first definitions of a program.
func ConvertLibrary(defs []ast.Def) (*Library, error) {
	cc := newConverter(&Library{}, defs, nil)
	cc.assumed = map[sexp.Symbol]bool{}
	main := &procConverter{cc: cc, locals: map[*ast.Var]*ir.Var{}}
	init, err := main.convertDefs(defs)
	if err != nil {
		return nil, err
	}
	return &Library{Procs: cc.procs, init: init, conv: *cc}, nil
}

// GlobalNames returns a copy of the library's global table, which every
// linked program's table begins with.
func (l *Library) GlobalNames() []sexp.Symbol {
	return append([]sexp.Symbol(nil), l.conv.globalNames...)
}

// Links reports whether p, a program's definitions and body after the
// library's, leaves every name the library's conversion assumed
// undefined alone, so that Link converts it exactly.
func (l *Library) Links(p *ast.Program) bool {
	for name := range globalsWritten(p.Defs, p.Body) {
		if l.conv.assumed[name] {
			return false
		}
	}
	return true
}

// Link closure-converts p, a program's definitions and body after the
// library's (assignment-converted), into the whole program's IR: the
// library's procedures, then p's, then main. It is exact when
// l.Links(p); the library's procedures are shared, not copied.
func (l *Library) Link(p *ast.Program) (*ir.Program, error) {
	cc := newConverter(l, p.Defs, p.Body)
	main := &procConverter{cc: cc, locals: map[*ast.Var]*ir.Var{}}
	seq := make([]ir.Expr, len(l.init), len(l.init)+len(p.Defs)+1)
	vars := map[*ir.Var]*ir.Var{}
	for i, e := range l.init {
		seq[i] = copyExpr(e, vars)
	}
	defs, err := main.convertDefs(p.Defs)
	if err != nil {
		return nil, err
	}
	seq = append(seq, defs...)
	body, err := main.convert(p.Body, true)
	if err != nil {
		return nil, err
	}
	seq = append(seq, body)
	var mainBody ir.Expr
	if len(seq) == 1 {
		mainBody = seq[0]
	} else {
		mainBody = &ir.Seq{Exprs: seq}
	}
	if len(main.freeOrder) != 0 {
		return nil, fmt.Errorf("passes: top level has free variables: %v", main.freeOrder)
	}
	mainProc := &ir.Proc{Name: "main", Body: mainBody}
	cc.procs = append(cc.procs, mainProc)

	prog := &ir.Program{
		Procs:       cc.procs,
		MainIndex:   len(cc.procs) - 1,
		GlobalNames: cc.globalNames,
		PrimGlobals: cc.primGlobals,
		UserGlobals: cc.userGlobals,
	}
	return prog, nil
}

// newConverter starts a conversion of defs and body after l, with its
// own copy of l's tables.
func newConverter(l *Library, defs []ast.Def, body ast.Expr) *closureConverter {
	lc := &l.conv
	cc := &closureConverter{
		procs:       lc.procs[:len(lc.procs):len(lc.procs)],
		globalIdx:   make(map[sexp.Symbol]int, len(lc.globalIdx)),
		globalNames: append([]sexp.Symbol(nil), lc.globalNames...),
		primGlobals: append([]*prim.Def(nil), lc.primGlobals...),
		userGlobals: append([]bool(nil), lc.userGlobals...),
		userDefined: globalsWritten(defs, body),
	}
	for name, i := range lc.globalIdx {
		cc.globalIdx[name] = i
	}
	for name := range lc.userDefined {
		cc.userDefined[name] = true
	}
	return cc
}

// globalsWritten is the set of global names defs define and defs or
// body assign (body may be nil).
func globalsWritten(defs []ast.Def, body ast.Expr) map[sexp.Symbol]bool {
	out := map[sexp.Symbol]bool{}
	for _, d := range defs {
		out[d.Name] = true
		scanGlobalSets(d.Rhs, out)
	}
	scanGlobalSets(body, out)
	return out
}

// convertDefs converts top-level definitions into main-level global
// stores, in order.
func (pc *procConverter) convertDefs(defs []ast.Def) ([]ir.Expr, error) {
	out := make([]ir.Expr, len(defs))
	for i, d := range defs {
		rhs, err := pc.convert(d.Rhs, false)
		if err != nil {
			return nil, err
		}
		out[i] = &ir.GlobalSet{Index: pc.cc.globalIndex(d.Name), Name: d.Name, Rhs: rhs}
	}
	return out, nil
}

// scanGlobalSets records every global name the program assigns, so that
// a set! of a primitive name disables its open-coding everywhere.
func scanGlobalSets(e ast.Expr, out map[sexp.Symbol]bool) {
	switch t := e.(type) {
	case *ast.GlobalSet:
		out[t.Name] = true
		scanGlobalSets(t.Rhs, out)
	case *ast.If:
		scanGlobalSets(t.Test, out)
		scanGlobalSets(t.Then, out)
		scanGlobalSets(t.Else, out)
	case *ast.Begin:
		for _, x := range t.Exprs {
			scanGlobalSets(x, out)
		}
	case *ast.Lambda:
		scanGlobalSets(t.Body, out)
	case *ast.Let:
		for _, x := range t.Inits {
			scanGlobalSets(x, out)
		}
		scanGlobalSets(t.Body, out)
	case *ast.Letrec:
		for _, x := range t.Inits {
			scanGlobalSets(x, out)
		}
		scanGlobalSets(t.Body, out)
	case *ast.Set:
		scanGlobalSets(t.Rhs, out)
	case *ast.Call:
		scanGlobalSets(t.Fn, out)
		for _, x := range t.Args {
			scanGlobalSets(x, out)
		}
	}
}

type closureConverter struct {
	procs       []*ir.Proc
	globalIdx   map[sexp.Symbol]int
	globalNames []sexp.Symbol
	primGlobals []*prim.Def
	userGlobals []bool
	userDefined map[sexp.Symbol]bool
	// assumed, when non-nil (converting a library), collects the names
	// isUserDefined answered false for: whether a call is open-coded,
	// whether call/cc is compiled specially, and a global cell's
	// UserGlobals entry. A program that defines or assigns one of them
	// would have changed the library's IR.
	assumed map[sexp.Symbol]bool
}

// isUserDefined reports whether the program defines or assigns name.
// Every decision the conversion makes on a global name's status goes
// through here, so a library's conversion can record what it assumed.
func (cc *closureConverter) isUserDefined(name sexp.Symbol) bool {
	if cc.userDefined[name] {
		return true
	}
	if cc.assumed != nil {
		cc.assumed[name] = true
	}
	return false
}

func (cc *closureConverter) globalIndex(name sexp.Symbol) int {
	if i, ok := cc.globalIdx[name]; ok {
		return i
	}
	i := len(cc.globalNames)
	cc.globalIdx[name] = i
	cc.globalNames = append(cc.globalNames, name)
	cc.primGlobals = append(cc.primGlobals, prim.Lookup(name))
	cc.userGlobals = append(cc.userGlobals, cc.isUserDefined(name))
	return i
}

// openCodable reports whether a call to the global name can be compiled
// as a primitive application.
func (cc *closureConverter) openCodable(name sexp.Symbol) *prim.Def {
	if cc.isUserDefined(name) {
		return nil
	}
	return prim.Lookup(name)
}

// procConverter converts one lambda body, discovering free variables.
type procConverter struct {
	cc        *closureConverter
	parent    *procConverter
	locals    map[*ast.Var]*ir.Var
	freeIdx   map[*ast.Var]int
	freeOrder []*ast.Var
}

// resolve turns an AST variable into a reference expression in this
// procedure, registering it as a free variable when necessary.
func (pc *procConverter) resolve(v *ast.Var) ir.Expr {
	if iv, ok := pc.locals[v]; ok {
		return &ir.VarRef{Var: iv}
	}
	if pc.parent == nil {
		// Should be impossible: parser resolved it as a local somewhere.
		panic(fmt.Sprintf("passes: unbound variable %s", v))
	}
	if idx, ok := pc.freeIdx[v]; ok {
		return &ir.FreeRef{Index: idx, Name: string(v.Name)}
	}
	if pc.freeIdx == nil {
		pc.freeIdx = map[*ast.Var]int{}
	}
	idx := len(pc.freeOrder)
	pc.freeIdx[v] = idx
	pc.freeOrder = append(pc.freeOrder, v)
	return &ir.FreeRef{Index: idx, Name: string(v.Name)}
}

func (pc *procConverter) newLocal(v *ast.Var) *ir.Var {
	iv := &ir.Var{Name: string(v.Name), SaveSlot: -1, CSReg: -1}
	pc.locals[v] = iv
	return iv
}

func (pc *procConverter) convert(e ast.Expr, tail bool) (ir.Expr, error) {
	switch t := e.(type) {
	case *ast.Const:
		// The ast→ir boundary is THE conversion point from compile-time
		// data (sexp.Datum) to the runtime value representation.
		return &ir.Const{Value: prim.FromDatum(t.Value)}, nil
	case *ast.Ref:
		return pc.resolve(t.Var), nil
	case *ast.GlobalRef:
		return &ir.GlobalRef{Index: pc.cc.globalIndex(t.Name), Name: t.Name}, nil
	case *ast.GlobalSet:
		rhs, err := pc.convert(t.Rhs, false)
		if err != nil {
			return nil, err
		}
		return &ir.GlobalSet{Index: pc.cc.globalIndex(t.Name), Name: t.Name, Rhs: rhs}, nil
	case *ast.If:
		test, err := pc.convert(t.Test, false)
		if err != nil {
			return nil, err
		}
		then, err := pc.convert(t.Then, tail)
		if err != nil {
			return nil, err
		}
		els, err := pc.convert(t.Else, tail)
		if err != nil {
			return nil, err
		}
		return &ir.If{Test: test, Then: then, Else: els}, nil
	case *ast.Begin:
		out := make([]ir.Expr, len(t.Exprs))
		for i, x := range t.Exprs {
			conv, err := pc.convert(x, tail && i == len(t.Exprs)-1)
			if err != nil {
				return nil, err
			}
			out[i] = conv
		}
		return &ir.Seq{Exprs: out}, nil
	case *ast.Lambda:
		return pc.convertLambda(t)
	case *ast.Let:
		return pc.convertLet(t, tail)
	case *ast.Letrec:
		return pc.convertFix(t, tail)
	case *ast.Call:
		return pc.convertCall(t, tail)
	case *ast.Set:
		return nil, fmt.Errorf("passes: set! survived assignment conversion")
	default:
		return nil, fmt.Errorf("passes: unknown expression %T", e)
	}
}

func (pc *procConverter) convertLambda(t *ast.Lambda) (*ir.MakeClosure, error) {
	inner := &procConverter{cc: pc.cc, parent: pc, locals: map[*ast.Var]*ir.Var{}}
	params := make([]*ir.Var, len(t.Params))
	for i, p := range t.Params {
		params[i] = inner.newLocal(p)
		params[i].Name = string(p.Name)
	}
	body, err := inner.convert(t.Body, true)
	if err != nil {
		return nil, err
	}
	proc := &ir.Proc{
		Name:   t.Name,
		Params: params,
		NFree:  len(inner.freeOrder),
		Body:   body,
	}
	for _, fv := range inner.freeOrder {
		proc.FreeNames = append(proc.FreeNames, string(fv.Name))
	}
	pc.cc.procs = append(pc.cc.procs, proc)
	procIdx := len(pc.cc.procs) - 1

	free := make([]ir.Expr, len(inner.freeOrder))
	for i, fv := range inner.freeOrder {
		free[i] = pc.resolve(fv)
	}
	return &ir.MakeClosure{ProcIndex: procIdx, Free: free}, nil
}

func (pc *procConverter) convertLet(t *ast.Let, tail bool) (ir.Expr, error) {
	// Alpha-renaming guarantees the inits cannot see the new bindings,
	// so a parallel let lowers to a chain of sequential binds.
	inits := make([]ir.Expr, len(t.Inits))
	for i, init := range t.Inits {
		conv, err := pc.convert(init, false)
		if err != nil {
			return nil, err
		}
		inits[i] = conv
	}
	vars := make([]*ir.Var, len(t.Vars))
	for i, v := range t.Vars {
		vars[i] = pc.newLocal(v)
	}
	body, err := pc.convert(t.Body, tail)
	if err != nil {
		return nil, err
	}
	for i := len(vars) - 1; i >= 0; i-- {
		body = &ir.Bind{Var: vars[i], Rhs: inits[i], Body: body}
	}
	return body, nil
}

// convertFix handles letrecs of unassigned lambdas (assignment
// conversion lowered every other letrec to boxes).
func (pc *procConverter) convertFix(t *ast.Letrec, tail bool) (ir.Expr, error) {
	vars := make([]*ir.Var, len(t.Vars))
	for i, v := range t.Vars {
		vars[i] = pc.newLocal(v)
	}
	closures := make([]*ir.MakeClosure, len(t.Inits))
	for i, init := range t.Inits {
		lam, ok := init.(*ast.Lambda)
		if !ok {
			return nil, fmt.Errorf("passes: letrec init is not a lambda after assignment conversion")
		}
		mc, err := pc.convertLambda(lam)
		if err != nil {
			return nil, err
		}
		closures[i] = mc
	}
	body, err := pc.convert(t.Body, tail)
	if err != nil {
		return nil, err
	}
	return &ir.Fix{Vars: vars, Closures: closures, Body: body, SaveVars: make([]bool, len(vars))}, nil
}

func (pc *procConverter) convertCall(t *ast.Call, tail bool) (ir.Expr, error) {
	if g, ok := t.Fn.(*ast.GlobalRef); ok {
		// call/cc is compiled specially unless the program shadows it.
		if (g.Name == "call/cc" || g.Name == "call-with-current-continuation") &&
			len(t.Args) == 1 && !pc.cc.isUserDefined(g.Name) {
			fn, err := pc.convert(t.Args[0], false)
			if err != nil {
				return nil, err
			}
			return &ir.Call{Fn: fn, Tail: tail, CallCC: true}, nil
		}
		if def := pc.cc.openCodable(g.Name); def != nil {
			if err := prim.CheckArity(def, len(t.Args)); err != nil {
				return nil, fmt.Errorf("passes: %v", err)
			}
			args := make([]ir.Expr, len(t.Args))
			for i, a := range t.Args {
				conv, err := pc.convert(a, false)
				if err != nil {
					return nil, err
				}
				args[i] = conv
			}
			return &ir.PrimCall{Def: def, Args: args}, nil
		}
	}
	fn, err := pc.convert(t.Fn, false)
	if err != nil {
		return nil, err
	}
	args := make([]ir.Expr, len(t.Args))
	for i, a := range t.Args {
		conv, err := pc.convert(a, false)
		if err != nil {
			return nil, err
		}
		args[i] = conv
	}
	return &ir.Call{Fn: fn, Args: args, Tail: tail}, nil
}

// copyExpr deep-copies unannotated main-level IR, giving each variable
// bound in it a fresh ir.Var (recorded in vars).
func copyExpr(e ir.Expr, vars map[*ir.Var]*ir.Var) ir.Expr {
	switch t := e.(type) {
	case *ir.Const:
		return &ir.Const{Value: t.Value}
	case *ir.VarRef:
		return &ir.VarRef{Var: vars[t.Var]}
	case *ir.FreeRef:
		return &ir.FreeRef{Index: t.Index, Name: t.Name}
	case *ir.GlobalRef:
		return &ir.GlobalRef{Index: t.Index, Name: t.Name}
	case *ir.GlobalSet:
		return &ir.GlobalSet{Index: t.Index, Name: t.Name, Rhs: copyExpr(t.Rhs, vars)}
	case *ir.If:
		return &ir.If{Test: copyExpr(t.Test, vars), Then: copyExpr(t.Then, vars), Else: copyExpr(t.Else, vars)}
	case *ir.Seq:
		return &ir.Seq{Exprs: copyExprs(t.Exprs, vars)}
	case *ir.Bind:
		v := copyVar(t.Var, vars)
		return &ir.Bind{Var: v, Rhs: copyExpr(t.Rhs, vars), Body: copyExpr(t.Body, vars)}
	case *ir.PrimCall:
		return &ir.PrimCall{Def: t.Def, Args: copyExprs(t.Args, vars)}
	case *ir.Call:
		return &ir.Call{Fn: copyExpr(t.Fn, vars), Args: copyExprs(t.Args, vars), Tail: t.Tail, CallCC: t.CallCC}
	case *ir.MakeClosure:
		return copyClosure(t, vars)
	case *ir.Fix:
		fix := &ir.Fix{Vars: make([]*ir.Var, len(t.Vars)), Closures: make([]*ir.MakeClosure, len(t.Closures)), SaveVars: make([]bool, len(t.Vars))}
		for i, v := range t.Vars {
			fix.Vars[i] = copyVar(v, vars)
		}
		for i, c := range t.Closures {
			fix.Closures[i] = copyClosure(c, vars)
		}
		fix.Body = copyExpr(t.Body, vars)
		return fix
	default:
		panic(fmt.Sprintf("passes: copyExpr: unexpected expression %T", e))
	}
}

func copyExprs(es []ir.Expr, vars map[*ir.Var]*ir.Var) []ir.Expr {
	out := make([]ir.Expr, len(es))
	for i, e := range es {
		out[i] = copyExpr(e, vars)
	}
	return out
}

func copyClosure(c *ir.MakeClosure, vars map[*ir.Var]*ir.Var) *ir.MakeClosure {
	return &ir.MakeClosure{ProcIndex: c.ProcIndex, Free: copyExprs(c.Free, vars)}
}

func copyVar(v *ir.Var, vars map[*ir.Var]*ir.Var) *ir.Var {
	nv := &ir.Var{Name: v.Name, SaveSlot: -1, CSReg: -1}
	vars[v] = nv
	return nv
}
