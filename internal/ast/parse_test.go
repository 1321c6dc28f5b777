package ast

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sexp"
)

func parseOne(t *testing.T, src string) Expr {
	t.Helper()
	prog, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", src, err)
	}
	return prog.Body
}

func TestParseConst(t *testing.T) {
	e := parseOne(t, "42")
	c, ok := e.(*Const)
	if !ok || c.Value != sexp.Fixnum(42) {
		t.Fatalf("got %#v", e)
	}
}

func TestParseQuote(t *testing.T) {
	e := parseOne(t, "'(1 2)")
	c, ok := e.(*Const)
	if !ok || c.Value.String() != "(1 2)" {
		t.Fatalf("got %s", Print(e))
	}
}

func TestGlobalVsLocal(t *testing.T) {
	e := parseOne(t, "(let ([x 1]) (+ x y))")
	let, ok := e.(*Let)
	if !ok {
		t.Fatalf("got %s", Print(e))
	}
	call := let.Body.(*Call)
	if _, ok := call.Fn.(*GlobalRef); !ok {
		t.Errorf("+ should be a global ref")
	}
	if _, ok := call.Args[0].(*Ref); !ok {
		t.Errorf("x should be a local ref")
	}
	if g, ok := call.Args[1].(*GlobalRef); !ok || g.Name != "y" {
		t.Errorf("y should be a global ref")
	}
}

func TestShadowing(t *testing.T) {
	e := parseOne(t, "(let ([x 1]) (let ([x 2]) x))")
	outer := e.(*Let)
	inner := outer.Body.(*Let)
	ref := inner.Body.(*Ref)
	if ref.Var != inner.Vars[0] {
		t.Error("inner x should resolve to inner binding")
	}
	if ref.Var == outer.Vars[0] {
		t.Error("inner x should not resolve to outer binding")
	}
}

func TestShadowedSpecialForm(t *testing.T) {
	// A let-bound `if` is an ordinary variable.
	e := parseOne(t, "(let ([if 1]) (if if if))")
	let := e.(*Let)
	call, ok := let.Body.(*Call)
	if !ok || len(call.Args) != 2 {
		t.Fatalf("shadowed if should parse as a call, got %s", Print(let.Body))
	}
}

func TestDefineForms(t *testing.T) {
	prog, err := ParseString("(define (f x) (+ x 1)) (define g 10) (f g)")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Defs) != 2 {
		t.Fatalf("got %d defs", len(prog.Defs))
	}
	lam, ok := prog.Defs[0].Rhs.(*Lambda)
	if !ok || len(lam.Params) != 1 || lam.Name != "f" {
		t.Errorf("define (f x): got %#v", prog.Defs[0].Rhs)
	}
}

func TestSetMarksAssigned(t *testing.T) {
	e := parseOne(t, "(let ([x 1]) (set! x 2) x)")
	let := e.(*Let)
	if !let.Vars[0].Assigned {
		t.Error("x should be marked assigned")
	}
}

func TestAndOrNotExpansion(t *testing.T) {
	// (and a b) => (if a b #f)
	e := parseOne(t, "(and a b)")
	iff, ok := e.(*If)
	if !ok {
		t.Fatalf("and should expand to if, got %s", Print(e))
	}
	if c, ok := iff.Else.(*Const); !ok || c.Value != sexp.Boolean(false) {
		t.Errorf("and else branch should be #f")
	}
	// (and) => #t
	if c, ok := parseOne(t, "(and)").(*Const); !ok || c.Value != sexp.Boolean(true) {
		t.Error("(and) should be #t")
	}
	// (or a b): a evaluated once via a temp
	e = parseOne(t, "(or a b)")
	let, ok := e.(*Let)
	if !ok {
		t.Fatalf("or should expand to let, got %s", Print(e))
	}
	iff = let.Body.(*If)
	if iff.Test.(*Ref).Var != let.Vars[0] {
		t.Error("or temp should be tested")
	}
	// (not a) => (if a #f #t)
	e = parseOne(t, "(not a)")
	iff = e.(*If)
	if c := iff.Then.(*Const); c.Value != sexp.Boolean(false) {
		t.Error("not then branch should be #f")
	}
}

func TestCondExpansion(t *testing.T) {
	e := parseOne(t, "(cond [(f) 1] [(g) 2] [else 3])")
	iff, ok := e.(*If)
	if !ok {
		t.Fatalf("got %s", Print(e))
	}
	inner, ok := iff.Else.(*If)
	if !ok {
		t.Fatalf("got %s", Print(e))
	}
	if c, ok := inner.Else.(*Const); !ok || c.Value != sexp.Fixnum(3) {
		t.Errorf("else clause: got %s", Print(inner.Else))
	}
}

func TestCondArrow(t *testing.T) {
	e := parseOne(t, "(cond [(f) => g] [else 0])")
	let, ok := e.(*Let)
	if !ok {
		t.Fatalf("got %s", Print(e))
	}
	iff := let.Body.(*If)
	call, ok := iff.Then.(*Call)
	if !ok || len(call.Args) != 1 {
		t.Fatalf("=> should apply receiver, got %s", Print(iff.Then))
	}
}

func TestCaseExpansion(t *testing.T) {
	e := parseOne(t, "(case x [(1 2) 'small] [else 'big])")
	let, ok := e.(*Let)
	if !ok {
		t.Fatalf("got %s", Print(e))
	}
	iff := let.Body.(*If)
	call := iff.Test.(*Call)
	if g, ok := call.Fn.(*GlobalRef); !ok || g.Name != "memv" {
		t.Errorf("case test should use memv, got %s", Print(iff.Test))
	}
}

func TestNamedLet(t *testing.T) {
	e := parseOne(t, "(let loop ([i 0]) (if (= i 10) i (loop (+ i 1))))")
	lr, ok := e.(*Letrec)
	if !ok {
		t.Fatalf("got %s", Print(e))
	}
	if _, ok := lr.Inits[0].(*Lambda); !ok {
		t.Error("named let should bind a lambda")
	}
	if _, ok := lr.Body.(*Call); !ok {
		t.Error("named let body should be a call")
	}
}

func TestDoExpansion(t *testing.T) {
	e := parseOne(t, "(do ([i 0 (+ i 1)] [acc 1]) ((= i 3) acc) (set! acc (* acc 2)))")
	lr, ok := e.(*Letrec)
	if !ok {
		t.Fatalf("got %s", Print(e))
	}
	lam := lr.Inits[0].(*Lambda)
	if len(lam.Params) != 2 {
		t.Errorf("do loop should have 2 params")
	}
}

func TestInternalDefines(t *testing.T) {
	e := parseOne(t, "(lambda (x) (define (h y) (* y 2)) (h x))")
	lam := e.(*Lambda)
	if _, ok := lam.Body.(*Letrec); !ok {
		t.Errorf("internal defines should become letrec, got %s", Print(lam.Body))
	}
}

func TestLetStar(t *testing.T) {
	e := parseOne(t, "(let* ([x 1] [y x]) y)")
	outer, ok := e.(*Let)
	if !ok {
		t.Fatalf("got %s", Print(e))
	}
	inner := outer.Body.(*Let)
	if inner.Inits[0].(*Ref).Var != outer.Vars[0] {
		t.Error("let* scoping broken")
	}
}

func TestQuasiquote(t *testing.T) {
	e := parseOne(t, "`(a ,b (c ,@d))")
	// Should expand into cons/append/quote structure referencing global b, d.
	s := Print(e)
	for _, frag := range []string{"cons", "append", "'a"} {
		if !strings.Contains(s, frag) {
			t.Errorf("quasiquote expansion missing %q: %s", frag, s)
		}
	}
}

func TestWhenUnless(t *testing.T) {
	e := parseOne(t, "(when c 1 2)")
	iff := e.(*If)
	if _, ok := iff.Then.(*Begin); !ok {
		t.Errorf("when body should be a begin, got %s", Print(iff.Then))
	}
	e = parseOne(t, "(unless c 1)")
	iff = e.(*If)
	if c, ok := iff.Then.(*Const); !ok || c != Unspecified {
		t.Errorf("unless then should be unspecified")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(if)",
		"(set! 3 4)",
		"(lambda x x)", // variadic unsupported
		"(let ([x]) x)",
		"(cond [else 1] [f 2])",
		"()",
		"(define)",
		"(lambda (x) (define (h y) y))", // body only definitions
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q): expected error", src)
		}
	}
}

func TestVarIDsUnique(t *testing.T) {
	prog, err := ParseString("(let ([x 1]) (let ([x 2] [y 3]) (+ x y)))")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *Let:
			for _, v := range n.Vars {
				if seen[v.ID] {
					t.Errorf("duplicate var ID %d", v.ID)
				}
				seen[v.ID] = true
			}
			for _, i := range n.Inits {
				walk(i)
			}
			walk(n.Body)
		case *Call:
			walk(n.Fn)
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(prog.Body)
	if len(seen) != 3 {
		t.Errorf("expected 3 vars, saw %d", len(seen))
	}
	if prog.NumVars < 3 {
		t.Errorf("NumVars = %d", prog.NumVars)
	}
}

// TestParseProgramAfter: parsing a program's forms after a library
// equals parsing the library's forms and the program's together —
// variable IDs, generated names and body order included — and leaves
// the library as it was.
func TestParseProgramAfter(t *testing.T) {
	libSrc := `(define (count n) (do ((i 0 (+ i 1))) ((= i n) i)))
(define (pick x) (or x (case x ((1) 'one) (else 'other))))
(display "lib")`
	userSrc := `(define (loop n) (do ((j n (- j 1))) ((zero? j) 'done)))
(define (f x) (or x (cond [(assv x '((1 . 2))) => cdr] [else #f])))
(f (loop 3))`
	libForms, err := sexp.ReadAll(libSrc)
	if err != nil {
		t.Fatal(err)
	}
	userForms, err := sexp.ReadAll(userSrc)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := ParseProgram(libForms)
	if err != nil {
		t.Fatal(err)
	}
	libText := PrintProgram(lib)
	got, err := ParseProgramAfter(lib, userForms)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseProgram(append(libForms, userForms...))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := PrintProgram(got), PrintProgram(want); g != w {
		t.Fatalf("ParseProgramAfter:\n%s\nwant:\n%s", g, w)
	}
	if got.NumVars != want.NumVars || got.NumTmps != want.NumTmps {
		t.Fatalf("counters %d/%d, want %d/%d", got.NumVars, got.NumTmps, want.NumVars, want.NumTmps)
	}
	if !strings.Contains(PrintProgram(got), fmt.Sprintf("%%do.%d", lib.NumTmps+1)) {
		t.Fatalf("the program's do loop should be numbered after the library's:\n%s", PrintProgram(got))
	}
	if PrintProgram(lib) != libText || len(lib.Defs) != 2 {
		t.Fatal("ParseProgramAfter changed the library")
	}
}
