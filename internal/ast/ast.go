// Package ast defines the core abstract syntax of the mini-Scheme
// language and the parser/macro-expander that produces it from
// S-expressions.
//
// The core language after expansion consists of constants, variable
// references, if, begin, lambda, let, letrec, set!, and procedure calls.
// Derived forms (and, or, not, cond, case, when, unless, do, let*, named
// let, quasiquote) are expanded during parsing, matching the paper's §2
// treatment of short-circuit boolean operations as if expressions.
package ast

import (
	"fmt"

	"repro/internal/sexp"
)

// Var is a local variable binding. Every binding occurrence gets a
// distinct *Var, so the later passes never need to worry about shadowing.
type Var struct {
	Name sexp.Symbol
	// ID is a unique identifier assigned at parse time.
	ID int
	// Assigned is set when the variable is the target of a set!;
	// assignment conversion boxes exactly these variables.
	Assigned bool
}

func (v *Var) String() string { return fmt.Sprintf("%s.%d", v.Name, v.ID) }

// Expr is the interface implemented by all core-language expressions.
type Expr interface{ expr() }

// Const is a self-evaluating or quoted constant.
type Const struct{ Value sexp.Datum }

// Ref is a reference to a local variable.
type Ref struct{ Var *Var }

// GlobalRef is a reference to a top-level (or primitive) name.
type GlobalRef struct{ Name sexp.Symbol }

// If is a two- or three-armed conditional; a missing else arm is filled
// with an unspecified constant.
type If struct{ Test, Then, Else Expr }

// Begin is a sequence of expressions evaluated left to right; the paper's
// seq form is the two-expression special case.
type Begin struct{ Exprs []Expr }

// Lambda is a procedure with fixed arity.
type Lambda struct {
	Params []*Var
	Body   Expr
	// Name is a debugging/profiling label derived from the define or
	// binding form that produced the lambda ("anon" otherwise).
	Name string
}

// Let binds variables in parallel. It is kept as a core form (rather than
// expanding to an application) so that locals can be register-allocated
// without a procedure call.
type Let struct {
	Vars  []*Var
	Inits []Expr
	Body  Expr
}

// Letrec binds mutually recursive variables.
type Letrec struct {
	Vars  []*Var
	Inits []Expr
	Body  Expr
}

// Set assigns a local variable.
type Set struct {
	Var *Var
	Rhs Expr
}

// GlobalSet assigns a top-level name.
type GlobalSet struct {
	Name sexp.Symbol
	Rhs  Expr
}

// Call applies Fn to Args.
type Call struct {
	Fn   Expr
	Args []Expr
}

func (*Const) expr()     {}
func (*Ref) expr()       {}
func (*GlobalRef) expr() {}
func (*If) expr()        {}
func (*Begin) expr()     {}
func (*Lambda) expr()    {}
func (*Let) expr()       {}
func (*Letrec) expr()    {}
func (*Set) expr()       {}
func (*GlobalSet) expr() {}
func (*Call) expr()      {}

// Def is a top-level definition.
type Def struct {
	Name sexp.Symbol
	Rhs  Expr
}

// Program is a parsed program: a sequence of top-level definitions
// followed by a body expression whose value is the program's result.
type Program struct {
	Defs []Def
	Body Expr
	// NumVars is one more than the largest Var.ID in the program.
	NumVars int
	// NumTmps is the number of names the expander generated (%do.N
	// and the like), so a program parsed after this one numbers its own
	// from NumTmps+1.
	NumTmps int
	// exprs are the top-level expressions Body sequences, kept so a
	// program parsed after this one can sequence its own after them.
	exprs []Expr
}

// Unspecified is the constant produced by one-armed ifs and empty bodies.
var Unspecified = &Const{Value: sexp.Symbol("#!unspecified")}

// True and False are shared boolean constants.
var (
	True  = &Const{Value: sexp.Boolean(true)}
	False = &Const{Value: sexp.Boolean(false)}
)
