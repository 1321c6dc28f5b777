// Package prim implements the primitive procedures of the mini-Scheme
// run-time system. Both the reference interpreter and the compiled-code
// virtual machine dispatch to the same primitive table, so a differential
// test that compares the two engines exercises the compiler rather than
// two divergent libraries.
//
// Values use the tagged two-word representation defined in value.go:
// fixnums, booleans, characters and the empty list are immediates (no
// heap box), flonums ride in the word next to a shared kind token, and
// pairs, closures, and closure free-variable slices come from a
// per-machine Arena of recycled slabs (nil-receiver-safe: without an
// arena every allocator falls back to the plain Go heap). Arena.Recycle
// invalidates everything handed out since the last call; CopyTree is
// the escape hatch for values that must outlive it. See value.go for
// the layout and lifetime contract.
//
// Primitives are deliberately first-order (they never call back into
// Scheme); higher-order library procedures such as map and for-each are
// defined in the Scheme prelude (see package runtime's Prelude) and are
// compiled like user code.
package prim

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sexp"
)

// Box is an assignable cell, the target of assignment conversion.
type Box struct{ V Value }

// Procedure is implemented by every engine's closure and continuation
// representation, so that procedure? works across engines.
type Procedure interface{ SchemeProcedure() }

// Unspecified is the value of expressions with no useful result. It is
// deliberately a symbol (as in the original interface representation),
// so symbol? of (void) stays #t.
var Unspecified = Value{p: sexp.Symbol("#!unspecified")}

// SchemeError is an error raised by the `error` primitive or by a
// primitive misuse (wrong type, division by zero, index out of range).
type SchemeError struct {
	Msg       string
	Irritants []Value
}

func (e *SchemeError) Error() string {
	var b strings.Builder
	b.WriteString("scheme error: ")
	b.WriteString(e.Msg)
	for _, irr := range e.Irritants {
		b.WriteByte(' ')
		b.WriteString(WriteString(irr))
	}
	return b.String()
}

// Errorf builds a *SchemeError.
func Errorf(format string, args ...interface{}) error {
	return &SchemeError{Msg: fmt.Sprintf(format, args...)}
}

// Ctx carries the ambient state primitives may touch: the output sink
// used by display/write/newline, the pair arena of the owning machine
// (nil for engines that allocate from the ordinary heap), the gensym
// counter, and the symbol→string intern cache.
type Ctx struct {
	Out       io.Writer
	Arena     *Arena
	gensymCnt int
	// symStr interns the result of symbol->string per symbol, so the
	// hot (string-ref (symbol->string s) 0) idiom pays the string-box
	// allocation once per distinct symbol instead of once per call.
	// The cache is machine-local (no synchronization needed) and
	// survives Recycle — boxed strings hold no arena cells.
	symStr map[sexp.Symbol]Value
}

// symStrCap bounds the intern cache so a program that manufactures
// symbols without limit (string->symbol in a loop) cannot grow it
// unboundedly; past the cap, conversions fall back to a fresh box.
const symStrCap = 4096

// SymbolString converts a symbol to its name string, interning the
// boxed result per Ctx. Safe on a nil receiver (uncached conversion).
func (c *Ctx) SymbolString(s sexp.Symbol) Value {
	if c == nil {
		return StrV(sexp.Str(s))
	}
	if v, ok := c.symStr[s]; ok {
		return v
	}
	v := StrV(sexp.Str(s))
	if len(c.symStr) < symStrCap {
		if c.symStr == nil {
			c.symStr = make(map[sexp.Symbol]Value)
		}
		c.symStr[s] = v
	}
	return v
}

// Fn is the Go implementation of a primitive.
type Fn func(ctx *Ctx, args []Value) (Value, error)

// Def describes one primitive.
type Def struct {
	Name sexp.Symbol
	// MinArgs and MaxArgs bound the arity; MaxArgs < 0 means variadic.
	MinArgs, MaxArgs int
	Fn               Fn
}

// table is the master list of primitives, populated by the files in this
// package; Lookup and All expose it.
var table = map[sexp.Symbol]*Def{}

func def(name string, min, max int, fn Fn) {
	sym := sexp.Symbol(name)
	if _, dup := table[sym]; dup {
		panic("prim: duplicate primitive " + name)
	}
	table[sym] = &Def{Name: sym, MinArgs: min, MaxArgs: max, Fn: fn}
}

// Lookup returns the primitive definition for name, or nil.
func Lookup(name sexp.Symbol) *Def { return table[name] }

// All returns every primitive definition sorted by name.
func All() []*Def {
	out := make([]*Def, 0, len(table))
	for _, d := range table {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CheckArity validates an argument count against a definition.
func CheckArity(d *Def, n int) error {
	if n < d.MinArgs || (d.MaxArgs >= 0 && n > d.MaxArgs) {
		return Errorf("%s: wrong number of arguments (%d)", d.Name, n)
	}
	return nil
}

// Truthy implements Scheme truth: everything except #f is true. With
// the tagged representation this is two word compares — no interface
// assertion — which matters because it is the VM's branch condition.
func Truthy(v Value) bool {
	return v.p != nil || v.w != False.w
}

// WriteString renders a value in external (write) notation.
func WriteString(v Value) string { return render(v, false) }

// DisplayString renders a value in display notation (strings unquoted,
// characters raw).
func DisplayString(v Value) string { return render(v, true) }

// render is the one printer behind WriteString and DisplayString. An
// atom's text is returned as it is made, with no builder to copy it
// into; a pair, vector or box is written into one builder.
func render(v Value, display bool) string {
	if s, ok := atom(v, display); ok {
		return s
	}
	var b strings.Builder
	writeValue(&b, v, display)
	return b.String()
}

// atom is v's text when v is not a pair, a vector or a box, and ok is
// false when it is one.
func atom(v Value, display bool) (s string, ok bool) {
	if v.p == nil {
		switch v.w & tagMask {
		case tagFixnum:
			return strconv.FormatInt(int64(v.w)>>3, 10), true
		case tagBool:
			if v.w>>3 != 0 {
				return "#t", true
			}
			return "#f", true
		case tagChar:
			if display {
				return string(rune(int64(v.w) >> 3)), true
			}
			return sexp.Char(int64(v.w) >> 3).String(), true
		case tagEmpty:
			return "()", true
		case tagRet:
			pc, fp, _ := v.Ret()
			return fmt.Sprintf("#<retaddr %d %d>", pc, fp), true
		default: // tagNone: the "no value" sentinel
			return "#<void>", true
		}
	}
	if v.p == floToken {
		return sexp.Flonum(math.Float64frombits(v.w)).String(), true
	}
	switch t := v.p.(type) {
	case sexp.Symbol:
		return string(t), true
	case sexp.Str:
		if display {
			return string(t), true
		}
		return strconv.Quote(string(t)), true
	case *fixBox:
		return strconv.FormatInt(int64(*t), 10), true
	case *Pair, *Vector, *Box:
		return "", false
	case Procedure:
		return "#<procedure>", true
	default:
		return fmt.Sprintf("#<%T %v>", v.p, v.p), true
	}
}

// writeValue appends v to b in write notation, or in display notation
// when display is set. Display reaches into pairs and vectors but not
// boxes, whose contents are always written. Every level appends to the
// one builder, so printing is linear in the output's size.
func writeValue(b *strings.Builder, v Value, display bool) {
	switch t := v.p.(type) {
	case *Pair:
		b.WriteByte('(')
		for {
			writeValue(b, t.Car, display)
			if t.Cdr.IsEmpty() {
				break
			}
			next, ok := t.Cdr.Pair()
			if !ok {
				b.WriteString(" . ")
				writeValue(b, t.Cdr, display)
				break
			}
			b.WriteByte(' ')
			t = next
		}
		b.WriteByte(')')
	case *Vector:
		b.WriteString("#(")
		for i, it := range t.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeValue(b, it, display)
		}
		b.WriteByte(')')
	case *Box:
		b.WriteString("#&")
		writeValue(b, t.V, false)
	default:
		s, _ := atom(v, display)
		b.WriteString(s)
	}
}

// Equal implements Scheme equal? over runtime values.
func Equal(a, b Value) bool {
	switch x := a.p.(type) {
	case *Pair:
		y, ok := b.p.(*Pair)
		return ok && Equal(x.Car, y.Car) && Equal(x.Cdr, y.Cdr)
	case *Vector:
		y, ok := b.p.(*Vector)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !Equal(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	case *Box:
		y, ok := b.p.(*Box)
		return ok && Equal(x.V, y.V)
	default:
		return Eqv(a, b)
	}
}

// Eqv implements Scheme eqv?. Immediates compare by word; flonums by
// numeric value (NaN is not eqv? to anything, matching the previous
// interface-equality semantics where == applied IEEE comparison);
// out-of-range fixnums by value (the canonical-encoding invariant means
// this case only arises boxed-vs-boxed); everything else by Go
// interface equality, which is value identity for symbols and strings
// (both immutable) and pointer identity for pairs, vectors, boxes and
// procedures.
func Eqv(a, b Value) bool {
	if a.p == nil || b.p == nil {
		return a.w == b.w && a.p == b.p
	}
	if a.p == floToken {
		return b.p == floToken &&
			math.Float64frombits(a.w) == math.Float64frombits(b.w)
	}
	if x, ok := a.p.(*fixBox); ok {
		y, ok := b.p.(*fixBox)
		return ok && *x == *y
	}
	return a.p == b.p
}

// Eq implements Scheme eq?; with our representations it coincides with
// eqv? except that flonum eq? is unspecified (we make it value equality,
// which is what Chez does for immediates).
func Eq(a, b Value) bool { return Eqv(a, b) }

// --- numeric helpers ---

func numAdd(a, b Value) (Value, error) { return numOp(a, b, "+") }
func numSub(a, b Value) (Value, error) { return numOp(a, b, "-") }
func numMul(a, b Value) (Value, error) { return numOp(a, b, "*") }

func numOp(a, b Value, op string) (Value, error) {
	if x, ok := a.Fixnum(); ok {
		if y, ok := b.Fixnum(); ok {
			// Fixnum arithmetic wraps at int64 (the boxed fallback keeps
			// the full 64-bit result exact; only true int64 overflow
			// wraps, as it always has).
			switch op {
			case "+":
				return FixV(x + y), nil
			case "-":
				return FixV(x - y), nil
			case "*":
				return FixV(x * y), nil
			}
		}
		if y, ok := b.Flonum(); ok {
			return flonumOp(float64(x), y, op), nil
		}
	} else if x, ok := a.Flonum(); ok {
		if y, ok := toFloat(b); ok {
			return flonumOp(x, y, op), nil
		}
	}
	return Value{}, Errorf("%s: expected numbers, got %s and %s", op, WriteString(a), WriteString(b))
}

func flonumOp(x, y float64, op string) Value {
	switch op {
	case "+":
		return FloV(x + y)
	case "-":
		return FloV(x - y)
	case "*":
		return FloV(x * y)
	}
	panic("unreachable")
}

func toFloat(v Value) (float64, bool) {
	if n, ok := v.Fixnum(); ok {
		return float64(n), true
	}
	return v.Flonum()
}

func numCompare(a, b Value) (int, error) {
	// Exact fixnum comparison avoids float rounding for large ints.
	if xa, ok := a.Fixnum(); ok {
		if yb, ok := b.Fixnum(); ok {
			switch {
			case xa < yb:
				return -1, nil
			case xa > yb:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	x, okx := toFloat(a)
	y, oky := toFloat(b)
	if !okx || !oky {
		return 0, Errorf("comparison: expected numbers, got %s and %s", WriteString(a), WriteString(b))
	}
	switch {
	case x < y:
		return -1, nil
	case x > y:
		return 1, nil
	case math.IsNaN(x) || math.IsNaN(y):
		return 2, nil // incomparable
	default:
		return 0, nil
	}
}

func wantFixnum(name string, v Value) (int64, error) {
	n, ok := v.Fixnum()
	if !ok {
		return 0, Errorf("%s: expected fixnum, got %s", name, WriteString(v))
	}
	return n, nil
}

func wantPair(name string, v Value) (*Pair, error) {
	p, ok := v.Pair()
	if !ok {
		return nil, Errorf("%s: expected pair, got %s", name, WriteString(v))
	}
	return p, nil
}

func wantVector(name string, v Value) (*Vector, error) {
	p, ok := v.Vector()
	if !ok {
		return nil, Errorf("%s: expected vector, got %s", name, WriteString(v))
	}
	return p, nil
}

func wantString(name string, v Value) (sexp.Str, error) {
	s, ok := v.Str()
	if !ok {
		return "", Errorf("%s: expected string, got %s", name, WriteString(v))
	}
	return s, nil
}

func boolV(b bool) Value { return BoolV(b) }
