package passes

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/sexp"
)

func mustProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := ast.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestAssignConvertSet(t *testing.T) {
	p := mustProgram(t, "(let ([x 1]) (set! x 2) x)")
	out := AssignConvert(p)
	s := ast.Print(out.Body)
	for _, frag := range []string{"box", "set-box!", "unbox"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q in %s", frag, s)
		}
	}
}

func TestAssignConvertUnassignedUntouched(t *testing.T) {
	p := mustProgram(t, "(let ([x 1]) (+ x x))")
	out := AssignConvert(p)
	s := ast.Print(out.Body)
	if strings.Contains(s, "box") {
		t.Errorf("unassigned variable should not be boxed: %s", s)
	}
}

func TestAssignConvertLambdaParam(t *testing.T) {
	p := mustProgram(t, "(lambda (x) (set! x 1) x)")
	out := AssignConvert(p)
	lam := out.Body.(*ast.Lambda)
	// The parameter is renamed and re-bound via a box.
	let, ok := lam.Body.(*ast.Let)
	if !ok {
		t.Fatalf("expected let wrapper, got %s", ast.Print(lam.Body))
	}
	if !strings.Contains(ast.Print(let.Inits[0]), "box") {
		t.Errorf("param should be boxed: %s", ast.Print(let.Inits[0]))
	}
}

func TestAssignConvertLetrecOfLambdasKept(t *testing.T) {
	p := mustProgram(t, "(letrec ([f (lambda (n) (if (zero? n) 1 (f (- n 1))))]) (f 3))")
	out := AssignConvert(p)
	if _, ok := out.Body.(*ast.Letrec); !ok {
		t.Errorf("letrec of lambdas should remain a letrec: %s", ast.Print(out.Body))
	}
}

func TestAssignConvertLetrecGeneralBoxed(t *testing.T) {
	p := mustProgram(t, "(letrec ([x 1] [y (lambda () x)]) (y))")
	out := AssignConvert(p)
	if _, ok := out.Body.(*ast.Letrec); ok {
		t.Errorf("general letrec should lower to boxes: %s", ast.Print(out.Body))
	}
	s := ast.Print(out.Body)
	if !strings.Contains(s, "set-box!") {
		t.Errorf("general letrec should initialize via set-box!: %s", s)
	}
}

func convert(t *testing.T, src string) *ir.Program {
	t.Helper()
	p := AssignConvert(mustProgram(t, src))
	prog, err := ClosureConvert(p)
	if err != nil {
		t.Fatalf("closure convert: %v", err)
	}
	return prog
}

func TestClosureConvertBasics(t *testing.T) {
	prog := convert(t, "(define (f x) (+ x 1)) (f 2)")
	if len(prog.Procs) != 2 { // f and main
		t.Fatalf("got %d procs", len(prog.Procs))
	}
	main := prog.Procs[prog.MainIndex]
	if main.Name != "main" || len(main.Params) != 0 {
		t.Errorf("main misshapen: %s", ir.PrintProc(main))
	}
}

func TestFreeVariableCapture(t *testing.T) {
	prog := convert(t, "(lambda (x) (lambda (y) (+ x y)))")
	var inner *ir.Proc
	for _, p := range prog.Procs {
		if p.NFree == 1 {
			inner = p
		}
	}
	if inner == nil {
		t.Fatalf("no proc captures exactly one free var: %v", prog.Procs)
	}
	if inner.FreeNames[0] != "x" {
		t.Errorf("free var should be x, got %v", inner.FreeNames)
	}
	if !strings.Contains(ir.PrintProc(inner), "free 0") {
		t.Errorf("body should use free ref: %s", ir.PrintProc(inner))
	}
}

func TestNestedFreeVariablePropagation(t *testing.T) {
	// z is free in the innermost lambda and must propagate through the
	// middle lambda's closure.
	prog := convert(t, "(lambda (z) (lambda (y) (lambda (x) (+ x (+ y z)))))")
	count := 0
	for _, p := range prog.Procs {
		count += p.NFree
	}
	// inner captures {y z} (2), middle captures {z} (1).
	if count != 3 {
		t.Errorf("total free slots = %d, want 3", count)
	}
}

func TestPrimOpenCoding(t *testing.T) {
	prog := convert(t, "(car '(1 2))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if !strings.Contains(s, "%car") {
		t.Errorf("car should be open-coded: %s", s)
	}
}

func TestPrimNotOpenCodedWhenRedefined(t *testing.T) {
	prog := convert(t, "(define (car x) 42) (car '(1 2))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if strings.Contains(s, "%car") {
		t.Errorf("redefined car must not be open-coded: %s", s)
	}
}

func TestPrimNotOpenCodedWhenSet(t *testing.T) {
	prog := convert(t, "(set! cdr 99) (cdr '(1 2))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if strings.Contains(s, "%cdr") {
		t.Errorf("assigned cdr must not be open-coded: %s", s)
	}
}

func TestPrimArityError(t *testing.T) {
	p := AssignConvert(mustProgram(t, "(cons 1)"))
	if _, err := ClosureConvert(p); err == nil {
		t.Error("expected arity error for (cons 1)")
	}
}

func TestTailPositionMarking(t *testing.T) {
	prog := convert(t, "(define (f x) (if x (f (- x 1)) (g x))) (f 1)")
	var f *ir.Proc
	for _, p := range prog.Procs {
		if p.Name == "f" {
			f = p
		}
	}
	s := ir.PrintProc(f)
	if !strings.Contains(s, "(tailcall") {
		t.Errorf("recursive calls in tail position should be tail calls: %s", s)
	}
	// The call inside main's body position... f's body if-branches are tail.
	if strings.Count(s, "(tailcall") != 2 {
		t.Errorf("both branch calls are tail calls: %s", s)
	}
}

func TestNonTailInsideArgs(t *testing.T) {
	prog := convert(t, "(define (f x) (+ (f x) 1)) (f 1)")
	var f *ir.Proc
	for _, p := range prog.Procs {
		if p.Name == "f" {
			f = p
		}
	}
	s := ir.PrintProc(f)
	if strings.Contains(s, "(tailcall") {
		t.Errorf("call inside prim args is not a tail call: %s", s)
	}
	if !strings.Contains(s, "(call") {
		t.Errorf("expected a non-tail call: %s", s)
	}
}

func TestFixConversion(t *testing.T) {
	prog := convert(t, "(let loop ([i 0]) (if (= i 3) i (loop (+ i 1))))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if !strings.Contains(s, "(fix (") {
		t.Errorf("named let should become fix: %s", s)
	}
}

func TestCallCCConversion(t *testing.T) {
	prog := convert(t, "(call/cc (lambda (k) (k 1)))")
	s := ir.PrintProc(prog.Procs[prog.MainIndex])
	if !strings.Contains(s, "call/cc") {
		t.Errorf("expected call/cc node: %s", s)
	}
}

func TestGlobalsTable(t *testing.T) {
	prog := convert(t, "(define x 1) (+ x y)")
	foundX, foundY := false, false
	for i, n := range prog.GlobalNames {
		switch n {
		case "x":
			foundX = true
			if !prog.UserGlobals[i] {
				t.Error("x should be a user global")
			}
		case "y":
			foundY = true
			if prog.UserGlobals[i] {
				t.Error("y should not be a user global")
			}
		}
	}
	if !foundX || !foundY {
		t.Errorf("globals table incomplete: %v", prog.GlobalNames)
	}
}

func TestHasCalls(t *testing.T) {
	prog := convert(t, `
(define (leaf x) (+ x 1))
(define (internal x) (leaf (leaf x)))
(define (tail-only x) (leaf x))
(leaf 1)`)
	byName := map[string]*ir.Proc{}
	for _, p := range prog.Procs {
		byName[p.Name] = p
	}
	if ir.HasCalls(byName["leaf"].Body) {
		t.Error("leaf should have no calls")
	}
	if !ir.HasCalls(byName["internal"].Body) {
		t.Error("internal has a nested non-tail call")
	}
	// tail-only's call is a tail call: not a call for leaf purposes.
	if ir.HasCalls(byName["tail-only"].Body) {
		t.Error("a lone tail call should not count as a call")
	}
}

// linkParts converts libSrc as a library and userSrc after it, and
// userSrc's whole program, returning the linked and whole IR.
func linkParts(t *testing.T, libSrc, userSrc string) (*Library, *ast.Program, *ir.Program) {
	t.Helper()
	libForms, err := sexp.ReadAll(libSrc)
	if err != nil {
		t.Fatal(err)
	}
	userForms, err := sexp.ReadAll(userSrc)
	if err != nil {
		t.Fatal(err)
	}
	libProg, err := ast.ParseProgram(libForms)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := ConvertLibrary(AssignConvert(libProg).Defs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ast.ParseProgramAfter(libProg, userForms)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ClosureConvert(AssignConvert(prog))
	if err != nil {
		t.Fatal(err)
	}
	user := &ast.Program{Defs: prog.Defs[len(libProg.Defs):], Body: prog.Body, NumVars: prog.NumVars}
	return lib, user, whole
}

func printIR(p *ir.Program) string {
	var b strings.Builder
	for _, proc := range p.Procs {
		b.WriteString(ir.PrintProc(proc))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "main=%d globals=%v prims=%v user=%v\n", p.MainIndex, p.GlobalNames, p.PrimGlobals, p.UserGlobals)
	return b.String()
}

// TestLinkEqualsWholeProgram: a program linked after a library whose
// definitions bind locals, capture them, box an assigned one and build
// a letrec at the top level converts exactly as the whole program does,
// and gets its own copy of the library's main-level code.
func TestLinkEqualsWholeProgram(t *testing.T) {
	libSrc := `(define counter (let ([n 0]) (lambda () n)))
(define acc (let ([s 0]) (lambda (x) (set! s (+ s x)) s)))
(define evens (letrec ([ev? (lambda (n) (if (zero? n) #t (od? (- n 1))))]
                       [od? (lambda (n) (if (zero? n) #f (ev? (- n 1))))])
                ev?))
(define table '(1 2 3))
(define (first l) (car l))`
	userSrc := `(define (g x) (first (list x (counter) (acc x) (evens 4) table)))
(g (call/cc (lambda (k) (k 1))))`
	lib, user, whole := linkParts(t, libSrc, userSrc)
	if !lib.Links(AssignConvert(user)) {
		t.Fatal("a program that shadows nothing should link")
	}
	linked, err := lib.Link(AssignConvert(user))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := printIR(linked), printIR(whole); g != w {
		t.Fatalf("linked:\n%s\nwhole:\n%s", g, w)
	}
	for i, e := range linked.Procs[linked.MainIndex].Body.(*ir.Seq).Exprs[:len(lib.init)] {
		if e == lib.init[i] {
			t.Fatalf("main-level definition %d is shared with the library", i)
		}
	}
}

// TestLinksRejectsAssumedNames: defining or assigning a primitive name
// the library open-codes fails the link test; redefining a library
// procedure or an unrelated name does not.
func TestLinksRejectsAssumedNames(t *testing.T) {
	libSrc := `(define (first l) (car l))
(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))`
	for src, want := range map[string]bool{
		"(define (car x) x) (first '(1))":      false,
		"(set! null? (lambda (x) #t)) (len 1)": false,
		"(define (first l) 0) (first '(1))":    true,
		"(define (cadr l) 0) (set! len cadr)":  true,
		"(define (vector-ref v i) 0) 1":        true,
	} {
		lib, user, _ := linkParts(t, libSrc, src)
		if got := lib.Links(user); got != want {
			t.Errorf("%s: Links = %v, want %v", src, got, want)
		}
	}
}
