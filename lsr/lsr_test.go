package lsr

import (
	"strings"
	"testing"
)

func TestCompileAndRun(t *testing.T) {
	p, err := Compile("(define (f x) (+ x 1)) (f 41)", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "42" {
		t.Errorf("value = %s", res.Value)
	}
	if res.Counters.Instructions == 0 {
		t.Error("no instructions counted")
	}
}

func TestRunValidated(t *testing.T) {
	p, err := Compile(`
(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(fib 12)`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunValidated(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "144" {
		t.Errorf("value = %s", res.Value)
	}
}

func TestOptionsMatrix(t *testing.T) {
	src := "(let loop ([i 0] [a 0]) (if (= i 50) a (loop (+ i 1) (+ a i))))"
	for _, saves := range []SaveStrategy{SaveLazy, SaveEarly, SaveLate} {
		for _, rest := range []RestorePolicy{RestoreEager, RestoreLazy} {
			opts := DefaultOptions()
			opts.Saves = saves
			opts.Restores = rest
			p, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("%v/%v: %v", saves, rest, err)
			}
			res, err := p.RunValidated(nil)
			if err != nil {
				t.Fatalf("%v/%v: %v", saves, rest, err)
			}
			if res.Value != "1225" {
				t.Errorf("%v/%v: value = %s", saves, rest, res.Value)
			}
		}
	}
}

func TestCalleeSaveOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.Config.CalleeSaveRegs = 6
	opts.CalleeSave = true
	p, err := Compile("(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 10)", opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunValidated(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "3628800" {
		t.Errorf("value = %s", res.Value)
	}
}

func TestInterpretOracle(t *testing.T) {
	v, err := Interpret("(map (lambda (x) (* x x)) '(1 2 3))", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != "(1 4 9)" {
		t.Errorf("value = %s", v)
	}
}

func TestOutputWriter(t *testing.T) {
	p, err := Compile(`(display "hi") (newline) 'done`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := p.Run(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "hi\n" {
		t.Errorf("output = %q", b.String())
	}
}

func TestDisassemble(t *testing.T) {
	p, err := Compile("(+ 1 2)", Options{Config: Config{ArgRegs: 2}, NoPrelude: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Disassemble(), "halt") {
		t.Error("disassembly missing halt")
	}
}

func TestBenchmarksExposed(t *testing.T) {
	bs := Benchmarks()
	if len(bs) < 20 {
		t.Fatalf("got %d benchmarks", len(bs))
	}
	tak, err := BenchmarkByName("tak")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(tak.Source, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != tak.Expect {
		t.Errorf("tak = %s, want %s", res.Value, tak.Expect)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestParsers(t *testing.T) {
	if s, err := ParseSaveStrategy("early"); err != nil || s != SaveEarly {
		t.Error("ParseSaveStrategy(early)")
	}
	if _, err := ParseSaveStrategy("bogus"); err == nil {
		t.Error("expected error")
	}
	if r, err := ParseRestorePolicy("lazy"); err != nil || r != RestoreLazy {
		t.Error("ParseRestorePolicy(lazy)")
	}
	if m, err := ParseShuffleMethod("naive"); err != nil || m != ShuffleNaive {
		t.Error("ParseShuffleMethod(naive)")
	}
	if SaveLazy.String() != "lazy" || RestoreEager.String() != "eager" || ShuffleGreedy.String() != "greedy" {
		t.Error("String() misbehaves")
	}
}

func TestStepBudget(t *testing.T) {
	p, err := Compile("(define (spin) (spin)) (spin)", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunWithOptions(nil, RunOptions{MaxSteps: 100000}); err == nil {
		t.Error("expected step budget error")
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("(lambda x x)", DefaultOptions()); err == nil {
		t.Error("expected error for variadic lambda")
	}
}

func TestShuffleStatsOption(t *testing.T) {
	opts := DefaultOptions()
	opts.ShuffleStats = true
	p, err := Compile("(define (f a b) (f b a)) (if #f (f 1 2) 'ok)", opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.CallSites == 0 {
		t.Error("no call sites recorded")
	}
	if p.Stats.SitesOptimal+p.Stats.SitesSuboptimal != p.Stats.CallSites {
		t.Error("optimality comparison missing")
	}
}

// TestSyntaxErrorLine: a reader error names the line of the caller's
// source, not its offset behind the prelude, in both the compiler and
// the interpreter.
func TestSyntaxErrorLine(t *testing.T) {
	src := "(define (f x) x)\n(f #z)\n(f 1)\n"
	_, cerr := Compile(src, DefaultOptions())
	_, ierr := Interpret(src, nil)
	for name, err := range map[string]error{"Compile": cerr, "Interpret": ierr} {
		if err == nil || !strings.Contains(err.Error(), "sexp: 2:") {
			t.Errorf("%s: error %v, want one at line 2", name, err)
		}
	}
}
