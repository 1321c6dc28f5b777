package prim

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sexp"
)

func call(t *testing.T, name string, args ...Value) Value {
	t.Helper()
	d := Lookup(sexp.Symbol(name))
	if d == nil {
		t.Fatalf("no primitive %s", name)
	}
	if err := CheckArity(d, len(args)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	v, err := d.Fn(&Ctx{}, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func callErr(name string, args ...Value) error {
	d := Lookup(sexp.Symbol(name))
	if d == nil {
		return Errorf("no primitive %s", name)
	}
	if err := CheckArity(d, len(args)); err != nil {
		return err
	}
	_, err := d.Fn(&Ctx{}, args)
	return err
}

func TestArithmetic(t *testing.T) {
	if got := call(t, "+", FixV(1), FixV(2)); got != FixV(3) {
		t.Errorf("+ = %v", got)
	}
	if got := call(t, "+", FixV(1), FloV(0.5)); got != FloV(1.5) {
		t.Errorf("mixed + = %v", got)
	}
	if got := call(t, "-", FixV(5)); got != FixV(-5) {
		t.Errorf("unary - = %v", got)
	}
	if got := call(t, "/", FixV(6), FixV(3)); got != FixV(2) {
		t.Errorf("exact / = %v", got)
	}
	if got := call(t, "/", FixV(1), FixV(2)); got != FloV(0.5) {
		t.Errorf("inexact / = %v", got)
	}
	if err := callErr("/", FixV(1), FixV(0)); err == nil {
		t.Error("division by zero should error")
	}
	if got := call(t, "modulo", FixV(-7), FixV(3)); got != FixV(2) {
		t.Errorf("modulo = %v", got)
	}
	if got := call(t, "expt", FixV(3), FixV(4)); got != FixV(81) {
		t.Errorf("expt = %v", got)
	}
	if got := call(t, "min", FixV(3), FixV(1), FixV(2)); got != FixV(1) {
		t.Errorf("min = %v", got)
	}
}

func TestComparisons(t *testing.T) {
	if got := call(t, "<", FixV(1), FixV(2), FixV(3)); got != BoolV(true) {
		t.Errorf("< chain = %v", got)
	}
	if got := call(t, "=", FixV(2), FloV(2)); got != BoolV(true) {
		t.Errorf("= mixed = %v", got)
	}
	// Large fixnums compare exactly (no float rounding); 1<<62 is out of
	// immediate range, so this also exercises the boxed-fixnum path.
	big, bigger := FixV(1<<62), FixV(1<<62+1)
	if got := call(t, "<", big, bigger); got != BoolV(true) {
		t.Errorf("big fixnum < = %v", got)
	}
}

func TestPairsAndOpaque(t *testing.T) {
	p := call(t, "cons", FixV(1), FixV(2))
	if got := call(t, "car", p); got != FixV(1) {
		t.Errorf("car = %v", got)
	}
	// Boxes survive storage in pairs.
	b := &Box{V: FixV(7)}
	p2 := call(t, "cons", BoxV(b), Empty)
	got := call(t, "car", p2)
	if got != BoxV(b) {
		t.Errorf("car of boxed pair = %#v", got)
	}
	call(t, "set-car!", p2, FixV(9))
	if got := call(t, "car", p2); got != FixV(9) {
		t.Errorf("after set-car! = %v", got)
	}
}

func TestCxr(t *testing.T) {
	// (cadr '(1 2 3)) = 2
	lst := call(t, "list", FixV(1), FixV(2), FixV(3))
	if got := call(t, "cadr", lst); got != FixV(2) {
		t.Errorf("cadr = %v", got)
	}
	if got := call(t, "caddr", lst); got != FixV(3) {
		t.Errorf("caddr = %v", got)
	}
	if err := callErr("caar", lst); err == nil {
		t.Error("caar of flat list should error")
	}
}

func TestVectors(t *testing.T) {
	v := call(t, "make-vector", FixV(3), SymV("z"))
	if got := call(t, "vector-length", v); got != FixV(3) {
		t.Errorf("vector-length = %v", got)
	}
	call(t, "vector-set!", v, FixV(1), FixV(42))
	if got := call(t, "vector-ref", v, FixV(1)); got != FixV(42) {
		t.Errorf("vector-ref = %v", got)
	}
	if err := callErr("vector-ref", v, FixV(3)); err == nil {
		t.Error("out-of-range vector-ref should error")
	}
	lst := call(t, "vector->list", v)
	v2 := call(t, "list->vector", lst)
	if got := call(t, "vector-ref", v2, FixV(1)); got != FixV(42) {
		t.Errorf("round trip vector-ref = %v", got)
	}
}

func TestStrings(t *testing.T) {
	if got := call(t, "string-append", StrV("foo"), StrV("bar")); got != StrV("foobar") {
		t.Errorf("string-append = %v", got)
	}
	if got := call(t, "substring", StrV("hello"), FixV(1), FixV(3)); got != StrV("el") {
		t.Errorf("substring = %v", got)
	}
	if got := call(t, "string->number", StrV("12")); got != FixV(12) {
		t.Errorf("string->number = %v", got)
	}
	if got := call(t, "string->number", StrV("nope")); got != BoolV(false) {
		t.Errorf("string->number non-number = %v", got)
	}
	if got := call(t, "string->symbol", StrV("abc")); got != SymV("abc") {
		t.Errorf("string->symbol = %v", got)
	}
}

func TestEqvEqualSemantics(t *testing.T) {
	if !Eqv(FixV(3), FixV(3)) {
		t.Error("eqv? fixnums")
	}
	p1 := PairV(&Pair{Car: FixV(1), Cdr: Empty})
	p2 := PairV(&Pair{Car: FixV(1), Cdr: Empty})
	if Eqv(p1, p2) {
		t.Error("eqv? distinct pairs should be false")
	}
	if !Eqv(p1, p1) {
		t.Error("eqv? same pair")
	}
	if !Equal(p1, p2) {
		t.Error("equal? structurally equal pairs")
	}
}

func TestWriteDisplay(t *testing.T) {
	lst := call(t, "list", StrV("a"), CharV('b'))
	if got := WriteString(lst); got != `("a" #\b)` {
		t.Errorf("WriteString = %q", got)
	}
	if got := DisplayString(lst); got != "(a b)" {
		t.Errorf("DisplayString = %q", got)
	}
	if got := WriteString(BoxV(&Box{V: FixV(1)})); got != "#&1" {
		t.Errorf("box = %q", got)
	}
}

// TestPrinters pins write and display output for every value kind, then
// requires printing to allocate linearly in nesting depth: a printer
// that builds each level's string and copies it into its parent's is
// quadratic.
func TestPrinters(t *testing.T) {
	ret, _ := MakeRet(3, 4)
	list := PairV(&Pair{Car: StrV("a"), Cdr: PairV(&Pair{Car: CharV('b'), Cdr: Empty})})
	for _, c := range []struct {
		v              Value
		write, display string
	}{
		{FixV(-42), "-42", "-42"},
		{FixV(FixMax + 1), "1152921504606846976", "1152921504606846976"},
		{FloV(2.5), "2.5", "2.5"},
		{FloV(3), "3.", "3."},
		{True, "#t", "#t"},
		{False, "#f", "#f"},
		{CharV('b'), `#\b`, "b"},
		{CharV(' '), `#\space`, " "},
		{Empty, "()", "()"},
		{ret, "#<retaddr 3 4>", "#<retaddr 3 4>"},
		{Value{}, "#<void>", "#<void>"},
		{SymV("sym"), "sym", "sym"},
		{StrV(`a"b`), `"a\"b"`, `a"b`},
		{list, `("a" #\b)`, "(a b)"},
		{PairV(&Pair{Car: SymV("x"), Cdr: CharV('y')}), `(x . #\y)`, "(x . y)"},
		{VecV(&Vector{Items: []Value{StrV("s"), list}}), `#("s" ("a" #\b))`, "#(s (a b))"},
		{VecV(&Vector{}), "#()", "#()"},
		// Display writes a box's contents.
		{BoxV(&Box{V: StrV("a")}), `#&"a"`, `#&"a"`},
		{ObjV(&Closure{}), "#<procedure>", "#<procedure>"},
		{ObjV(7), "#<int 7>", "#<int 7>"},
	} {
		if got := WriteString(c.v); got != c.write {
			t.Errorf("WriteString = %q, want %q", got, c.write)
		}
		if got := DisplayString(c.v); got != c.display {
			t.Errorf("DisplayString = %q, want %q", got, c.display)
		}
	}

	printed := func(depth int) uint64 {
		v := Empty
		for i := 0; i < depth; i++ {
			v = PairV(&Pair{Car: v, Cdr: Empty})
		}
		least := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			WriteString(v)
			DisplayString(v)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const n = 4000
	small, large := printed(n), printed(4*n)
	t.Logf("depth %d: %d bytes; depth %d: %d bytes (%.1fx)", n, small, 4*n, large, float64(large)/float64(small))
	if large > 6*small {
		t.Errorf("printing depth %d allocated %.1fx depth %d's bytes; want at most 6x",
			4*n, float64(large)/float64(small), n)
	}
}

func TestArityChecking(t *testing.T) {
	if err := callErr("cons", FixV(1)); err == nil {
		t.Error("cons/1 should fail arity check")
	}
	if err := callErr("newline", FixV(1)); err == nil {
		t.Error("newline/1 should fail arity check")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	if len(all) < 80 {
		t.Errorf("expected at least 80 primitives, got %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("All() not sorted at %d: %s >= %s", i, all[i-1].Name, all[i].Name)
		}
	}
}

func TestIOOutput(t *testing.T) {
	var b strings.Builder
	ctx := &Ctx{Out: &b}
	d := Lookup("display")
	if _, err := d.Fn(ctx, []Value{StrV("hi")}); err != nil {
		t.Fatal(err)
	}
	n := Lookup("newline")
	if _, err := n.Fn(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "hi\n" {
		t.Errorf("output = %q", b.String())
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(BoolV(false)) {
		t.Error("#f should be falsy")
	}
	for _, v := range []Value{FixV(0), Empty, StrV(""), BoolV(true)} {
		if !Truthy(v) {
			t.Errorf("%v should be truthy", WriteString(v))
		}
	}
}
