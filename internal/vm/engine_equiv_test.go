// Differential test between the two execution engines. The threaded
// pre-decoded engine (EngineThreaded) must be observably identical to
// the reference switch loop (EngineSwitch): same result value, same
// error (including the exact pc inside FuelError and RuntimeError), and
// byte-for-byte identical Counters. This is the guardrail that lets the
// threaded engine pre-decode instructions and specialize primitives
// without ever changing the simulated cost-model outputs the paper's
// tables are built from.
//
// It lives in package vm_test because driving real programs through
// both engines needs the compiler, which depends on package vm.
package vm_test

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/prim"
	"repro/internal/vm"
)

// equivConfigs are the compiler configurations the differential test
// runs under: the paper configuration (lazy saves), the zero-register
// baseline (stack operands everywhere, exercising the readOperand slow
// paths of the specialized arms), and the two alternative save
// strategies.
func equivConfigs() map[string]compiler.Options {
	return map[string]compiler.Options{
		"paper":    bench.PaperOptions(),
		"baseline": bench.BaselineOptions(),
		"early":    bench.StrategyOptions(codegen.SaveEarly),
		"late":     bench.StrategyOptions(codegen.SaveLate),
	}
}

// runEngine compiles nothing — it executes an already-compiled program
// on a fresh machine with the given engine and settings and returns the
// written result (or ""), the error, and the counters.
func runEngine(p *vm.Program, eng vm.EngineKind, mode vm.CounterMode, fuel int64, validate bool) (string, error, *vm.Counters) {
	m := vm.New(p, io.Discard)
	m.Engine = eng
	m.Counting = mode
	m.MaxSteps = fuel
	m.ValidateRestores = validate
	v, err := m.Run()
	res := ""
	if err == nil {
		res = prim.WriteString(v)
	}
	return res, err, &m.Counters
}

// TestEngineEquivalence runs the benchmark suite under several compiler
// configurations on both engines and requires identical results and
// identical full counter vectors. Short mode uses the quick suite; full
// mode runs every program.
func TestEngineEquivalence(t *testing.T) {
	progs := bench.All()
	if testing.Short() {
		progs = quickPrograms(t)
	}
	for cfgName, opts := range equivConfigs() {
		for _, p := range progs {
			c, err := compiler.Compile(p.Source, opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", cfgName, p.Name, err)
			}
			resT, errT, cntT := runEngine(c.Program, vm.EngineThreaded, vm.CountFull, bench.BenchFuel, false)
			resS, errS, cntS := runEngine(c.Program, vm.EngineSwitch, vm.CountFull, bench.BenchFuel, false)
			if errT != nil || errS != nil {
				t.Fatalf("%s/%s: run errors threaded=%v switch=%v", cfgName, p.Name, errT, errS)
			}
			if resT != resS {
				t.Errorf("%s/%s: result mismatch threaded=%s switch=%s", cfgName, p.Name, resT, resS)
			}
			if p.Expect != "" && resT != p.Expect {
				t.Errorf("%s/%s: result %s, want %s", cfgName, p.Name, resT, p.Expect)
			}
			if !reflect.DeepEqual(cntT, cntS) {
				t.Errorf("%s/%s: counter mismatch\nthreaded: %+v\nswitch:   %+v", cfgName, p.Name, cntT, cntS)
			}
			// The counters-off fast path must report the identical cost
			// model outputs, on both engines.
			for _, eng := range []vm.EngineKind{vm.EngineThreaded, vm.EngineSwitch} {
				_, errE, cntE := runEngine(c.Program, eng, vm.CountEssential, bench.BenchFuel, false)
				if errE != nil {
					t.Fatalf("%s/%s: essential run: %v", cfgName, p.Name, errE)
				}
				checkEssential(t, cfgName+"/"+p.Name, cntE, cntT)
			}
		}
	}
}

// quickPrograms is the -short subset: small programs that still run
// calls, tail calls, the allocator's save/restore and shuffle code, and
// the common specialized primitives.
func quickPrograms(t *testing.T) []*bench.Program {
	var out []*bench.Program
	for _, name := range []string{"tak", "cpstak", "deriv", "destruct"} {
		p, err := bench.ByName(name)
		if err != nil {
			t.Fatalf("quick subset: %v", err)
		}
		out = append(out, p)
	}
	return out
}

// checkEssential verifies the essential counter subset (the cost-model
// outputs) against a full-mode reference.
func checkEssential(t *testing.T, label string, got, want *vm.Counters) {
	t.Helper()
	if got.Instructions != want.Instructions || got.Cycles != want.Cycles ||
		got.StallCycles != want.StallCycles ||
		got.StackReads != want.StackReads || got.StackWrites != want.StackWrites {
		t.Errorf("%s: essential counters diverge from full mode\nessential: %+v\nfull:      %+v", label, got, want)
	}
}

// TestEngineEquivalenceFuel sweeps the step budget so execution is cut
// off at every early pc — including inside the allocator's save,
// restore and shuffle sequences — and requires both engines to stop
// with the same *FuelError (same budget, same pc) and identical
// counters at the point of exhaustion.
func TestEngineEquivalenceFuel(t *testing.T) {
	for cfgName, opts := range equivConfigs() {
		p, err := bench.ByName("tak")
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.Compile(p.Source, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", cfgName, err)
		}
		step := int64(1)
		if testing.Short() {
			step = 17
		}
		for fuel := int64(1); fuel <= 3000; fuel += step {
			_, errT, cntT := runEngine(c.Program, vm.EngineThreaded, vm.CountFull, fuel, false)
			_, errS, cntS := runEngine(c.Program, vm.EngineSwitch, vm.CountFull, fuel, false)
			var feT, feS *vm.FuelError
			if !errors.As(errT, &feT) || !errors.As(errS, &feS) {
				t.Fatalf("%s: fuel=%d expected FuelError, got threaded=%v switch=%v", cfgName, fuel, errT, errS)
			}
			if *feT != *feS {
				t.Fatalf("%s: fuel=%d FuelError mismatch threaded=%+v switch=%+v", cfgName, fuel, feT, feS)
			}
			if !reflect.DeepEqual(cntT, cntS) {
				t.Fatalf("%s: fuel=%d counter mismatch\nthreaded: %+v\nswitch:   %+v", cfgName, fuel, cntT, cntS)
			}
			if !errors.Is(errT, vm.ErrFuelExhausted) {
				t.Fatalf("%s: fuel=%d FuelError does not match ErrFuelExhausted", cfgName, fuel)
			}
		}
	}
}

// TestEngineEquivalenceErrors runs a corpus of programs that trap at
// runtime and requires both engines to raise the same error at the same
// pc with the same counters. The unboxed-operand entries aim a wrong
// immediate tag at every operand position the specialized threaded arms
// type-check, so a divergence between an arm's tag test and the generic
// primitive's would show up as an error or counter mismatch here.
func TestEngineEquivalenceErrors(t *testing.T) {
	corpus := []struct{ name, src string }{
		{"car-of-fixnum", `(car 42)`},
		{"cdr-of-empty", `(cdr '())`},
		{"add-non-number", `(+ 1 'a)`},
		{"lt-non-number", `(< 1 "x")`},
		{"vector-ref-oob", `(vector-ref (vector 1 2 3) 9)`},
		{"string-ref-oob", `(string-ref "ab" 5)`},
		{"arity", `(define (f x y) x) (f 1)`},
		{"non-procedure", `(define f 7) (f 1)`},
		{"zero-division", `(quotient 1 0)`},
		{"error-prim", `(error "boom" 1 2)`},
		// Type traps on unboxed (immediate-tagged) operands.
		{"car-of-char", `(car #\a)`},
		{"car-of-bool", `(car #t)`},
		{"cdr-of-fixnum", `(cdr 3)`},
		{"add-of-char", `(+ 1 #\a)`},
		{"add-of-bool", `(+ #t 1)`},
		{"add-of-empty", `(+ 1 '())`},
		{"sub-of-empty", `(- '() 1)`},
		{"mul-of-char", `(* 2 #\x)`},
		{"div-of-bool", `(/ #f 2)`},
		{"add1-of-bool", `(add1 #t)`},
		{"sub1-of-char", `(sub1 #\a)`},
		{"lt-of-bool", `(< 1 #t)`},
		{"eq-num-of-empty", `(= '() 0)`},
		{"quotient-of-char", `(quotient #\a 2)`},
		{"remainder-of-bool", `(remainder 7 #t)`},
		{"modulo-of-empty", `(modulo 7 '())`},
		{"vector-ref-of-fixnum", `(vector-ref 7 0)`},
		{"vector-ref-char-index", `(vector-ref (vector 1) #\a)`},
		{"string-length-of-fixnum", `(string-length 7)`},
		{"string-ref-bool-index", `(string-ref "ab" #t)`},
		{"set-car-of-fixnum", `(set-car! 1 2)`},
		{"set-cdr-of-empty", `(set-cdr! '() 2)`},
		{"char-to-int-of-fixnum", `(char->integer 5)`},
		{"int-to-char-of-bool", `(integer->char #f)`},
		{"length-of-fixnum", `(length 5)`},
		// Type trap on a BOXED fixnum operand: the wide fixnum is a
		// number, so arithmetic accepts it, but it is not a pair.
		{"car-of-boxed-fixnum", `(car (expt 2 62))`},
	}
	for cfgName, opts := range equivConfigs() {
		for _, tc := range corpus {
			c, err := compiler.Compile(tc.src, opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", cfgName, tc.name, err)
			}
			_, errT, cntT := runEngine(c.Program, vm.EngineThreaded, vm.CountFull, bench.BenchFuel, false)
			_, errS, cntS := runEngine(c.Program, vm.EngineSwitch, vm.CountFull, bench.BenchFuel, false)
			if errT == nil || errS == nil {
				t.Fatalf("%s/%s: expected trap, got threaded=%v switch=%v", cfgName, tc.name, errT, errS)
			}
			if errT.Error() != errS.Error() {
				t.Errorf("%s/%s: error mismatch\nthreaded: %v\nswitch:   %v", cfgName, tc.name, errT, errS)
			}
			var reT, reS *vm.RuntimeError
			if errors.As(errT, &reT) && errors.As(errS, &reS) && reT.PC != reS.PC {
				t.Errorf("%s/%s: trap pc mismatch threaded=%d switch=%d", cfgName, tc.name, reT.PC, reS.PC)
			}
			if !reflect.DeepEqual(cntT, cntS) {
				t.Errorf("%s/%s: counter mismatch\nthreaded: %+v\nswitch:   %+v", cfgName, tc.name, cntT, cntS)
			}
		}
	}
}

// TestEngineEquivalenceOverflow drives every arithmetic primitive
// across the 61-bit immediate/boxed fixnum boundary in both directions
// and requires (a) both engines to agree byte-for-byte on results and
// counters, and (b) the result to match the reference interpreter,
// which shares the Value representation but none of the VM's
// specialized arithmetic arms. A bug in the overflow promotion (an arm
// producing an immediate where FixV would box, or vice versa) would
// surface as an eqv?/write divergence here.
func TestEngineEquivalenceOverflow(t *testing.T) {
	const fixMax = "1152921504606846975"  // prim.FixMax
	const fixMin = "-1152921504606846976" // prim.FixMin
	corpus := []struct{ name, src string }{
		{"add-overflow", `(+ ` + fixMax + ` 1)`},
		{"add-wide", `(+ (expt 2 62) (expt 2 62))`},
		{"sub-overflow", `(- ` + fixMin + ` 1)`},
		{"sub-unary-overflow", `(- ` + fixMin + `)`},
		{"mul-overflow", `(* 3037000499 3037000499)`},
		{"mul-wide", `(* (expt 2 32) (expt 2 29))`},
		{"add1-overflow", `(add1 ` + fixMax + `)`},
		{"sub1-overflow", `(sub1 ` + fixMin + `)`},
		{"abs-overflow", `(abs (- ` + fixMin + ` 1))`},
		{"expt-overflow", `(expt 2 62)`},
		{"quotient-boxed", `(quotient (expt 2 62) 3)`},
		{"quotient-back-in-range", `(quotient (expt 2 62) 16)`},
		{"remainder-boxed", `(remainder (expt 2 62) 1000000007)`},
		{"modulo-boxed", `(modulo (- (expt 2 62)) 1000000007)`},
		{"min-boxed", `(min (expt 2 62) (expt 2 61))`},
		{"max-boxed", `(max (expt 2 61) (expt 2 62))`},
		{"ash-overflow", `(ash 1 62)`},
		{"boxed-compare", `(< (expt 2 61) (add1 (expt 2 61)))`},
		{"boxed-equal-num", `(= (expt 2 62) (expt 2 62))`},
		{"boxed-eqv", `(eqv? (expt 2 62) (expt 2 62))`},
		{"boxed-back-to-immediate", `(- (+ ` + fixMax + ` 1) 1)`},
		{"boxed-zero-p", `(zero? (expt 2 62))`},
		{"boxed-even-p", `(even? (expt 2 62))`},
		{"boxed-fixnum-p", `(fixnum? (expt 2 62))`},
		{"boxed-in-structure", `(car (cons (expt 2 62) '()))`},
		{"boxed-display", `(number->string (add1 (expt 2 61)))`},
	}
	for cfgName, opts := range equivConfigs() {
		for _, tc := range corpus {
			c, err := compiler.Compile(tc.src, opts)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", cfgName, tc.name, err)
			}
			resT, errT, cntT := runEngine(c.Program, vm.EngineThreaded, vm.CountFull, bench.BenchFuel, false)
			resS, errS, cntS := runEngine(c.Program, vm.EngineSwitch, vm.CountFull, bench.BenchFuel, false)
			if errT != nil || errS != nil {
				t.Fatalf("%s/%s: run errors threaded=%v switch=%v", cfgName, tc.name, errT, errS)
			}
			if resT != resS {
				t.Errorf("%s/%s: result mismatch threaded=%s switch=%s", cfgName, tc.name, resT, resS)
			}
			if !reflect.DeepEqual(cntT, cntS) {
				t.Errorf("%s/%s: counter mismatch\nthreaded: %+v\nswitch:   %+v", cfgName, tc.name, cntT, cntS)
			}
			iv, err := compiler.Interpret(tc.src, false, io.Discard)
			if err != nil {
				t.Fatalf("%s/%s: interpreter oracle: %v", cfgName, tc.name, err)
			}
			if want := prim.WriteString(iv); resT != want {
				t.Errorf("%s/%s: engines produced %s, interpreter oracle %s", cfgName, tc.name, resT, want)
			}
		}
	}
}

// TestEngineEquivalenceFuelOverflow sweeps the step budget over a
// program whose inner loop conses from the arena and pushes fixnums
// across the boxing boundary, so the cut-off lands on every pc of the
// new representation's hot paths (arena cons, FixV overflow promotion,
// boxed comparison) on both engines.
func TestEngineEquivalenceFuelOverflow(t *testing.T) {
	const src = `
	  (define (loop i acc lst)
	    (if (> i 2000)
	        (length lst)
	        (loop (add1 i) (* acc 3) (cons acc lst))))
	  (loop 0 1152921504606846000 '())`
	for cfgName, opts := range equivConfigs() {
		c, err := compiler.Compile(src, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", cfgName, err)
		}
		step := int64(1)
		if testing.Short() {
			step = 17
		}
		for fuel := int64(1); fuel <= 3000; fuel += step {
			_, errT, cntT := runEngine(c.Program, vm.EngineThreaded, vm.CountFull, fuel, false)
			_, errS, cntS := runEngine(c.Program, vm.EngineSwitch, vm.CountFull, fuel, false)
			var feT, feS *vm.FuelError
			if !errors.As(errT, &feT) || !errors.As(errS, &feS) {
				t.Fatalf("%s: fuel=%d expected FuelError, got threaded=%v switch=%v", cfgName, fuel, errT, errS)
			}
			if *feT != *feS {
				t.Fatalf("%s: fuel=%d FuelError mismatch threaded=%+v switch=%+v", cfgName, fuel, feT, feS)
			}
			if !reflect.DeepEqual(cntT, cntS) {
				t.Fatalf("%s: fuel=%d counter mismatch\nthreaded: %+v\nswitch:   %+v", cfgName, fuel, cntT, cntS)
			}
		}
	}
}

// TestEngineEquivalenceValidate runs with ValidateRestores on (poisoned
// caller-save registers, every register read through the slow path) on
// both engines and requires identical outcomes.
func TestEngineEquivalenceValidate(t *testing.T) {
	p, err := bench.ByName("deriv")
	if err != nil {
		t.Fatal(err)
	}
	for cfgName, opts := range equivConfigs() {
		c, err := compiler.Compile(p.Source, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", cfgName, err)
		}
		resT, errT, cntT := runEngine(c.Program, vm.EngineThreaded, vm.CountFull, bench.BenchFuel, true)
		resS, errS, cntS := runEngine(c.Program, vm.EngineSwitch, vm.CountFull, bench.BenchFuel, true)
		if errT != nil || errS != nil {
			t.Fatalf("%s: validate run errors threaded=%v switch=%v", cfgName, errT, errS)
		}
		if resT != resS {
			t.Errorf("%s: result mismatch threaded=%s switch=%s", cfgName, resT, resS)
		}
		if !reflect.DeepEqual(cntT, cntS) {
			t.Errorf("%s: counter mismatch\nthreaded: %+v\nswitch:   %+v", cfgName, cntT, cntS)
		}
	}
}
