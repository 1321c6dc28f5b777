package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/prim"
	"repro/internal/vm"
)

// testPrograms is the correctness corpus: each program is run through
// the reference interpreter and through the compiler under every
// strategy combination, with restore validation on.
var testPrograms = []struct {
	name string
	src  string
	want string
}{
	{"const", "42", "42"},
	{"arith", "(+ 1 (* 2 3) (- 10 4))", "13"},
	{"let", "(let ([x 1] [y 2]) (+ x y))", "3"},
	{"let-shadow", "(let ([x 1]) (let ([x 2] [y x]) (+ x y)))", "3"},
	{"if", "(if (< 1 2) 'yes 'no)", "yes"},
	{"and-or", "(list (and 1 2) (and #f 2) (or #f 3) (or 4 5) (not 1))", "(2 #f 3 4 #f)"},
	{"cond", "(cond [(= 1 2) 'a] [(= 1 1) 'b] [else 'c])", "b"},
	{"case", "(case (* 2 3) [(2 3 5 7) 'prime] [(1 4 6 8 9) 'composite])", "composite"},
	{"define", "(define (f x) (+ x 1)) (f 41)", "42"},
	{"fact", "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 12)", "479001600"},
	{"fib", "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 16)", "987"},
	{"mutual", `
(define (ev? n) (if (zero? n) #t (od? (- n 1))))
(define (od? n) (if (zero? n) #f (ev? (- n 1))))
(list (ev? 10) (od? 7))`, "(#t #t)"},
	{"named-let", "(let loop ([i 0] [acc '()]) (if (= i 5) (reverse acc) (loop (+ i 1) (cons i acc))))", "(0 1 2 3 4)"},
	{"do-loop", "(do ([i 0 (+ i 1)] [acc 1 (* acc 2)]) ((= i 8) acc))", "256"},
	{"closure", `
(define (adder n) (lambda (x) (+ x n)))
(define add3 (adder 3))
(define add7 (adder 7))
(list (add3 10) (add7 10))`, "(13 17)"},
	{"counter", `
(define (make-counter)
  (let ([n 0]) (lambda () (set! n (+ n 1)) n)))
(define c1 (make-counter))
(define c2 (make-counter))
(c1) (c1) (c2)
(list (c1) (c2))`, "(3 2)"},
	{"higher-order", "(fold-left + 0 (map (lambda (x) (* x x)) (iota 10)))", "285"},
	{"list-ops", "(list (length '(a b c)) (append '(1 2) '(3)) (reverse '(x y z)) (memq 'b '(a b c)) (assv 2 '((1 a) (2 b))))",
		"(3 (1 2 3) (z y x) (b c) (2 b))"},
	{"vectors", `
(define v (make-vector 5 0))
(do ([i 0 (+ i 1)]) ((= i 5)) (vector-set! v i (* i i)))
(vector->list v)`, "(0 1 4 9 16)"},
	{"strings", `(list (string-append "ab" "cd") (string-length "hello") (substring "world" 1 3))`,
		`("abcd" 5 "or")`},
	{"deep-recursion", "(define (sum n acc) (if (zero? n) acc (sum (- n 1) (+ acc n)))) (sum 10000 0)", "50005000"},
	{"nonsyntactic-leaf", `
(define (maybe-call x f) (if (pair? x) (f (car x)) x))
(list (maybe-call 7 car) (maybe-call '(8 9) (lambda (v) (* v 2))))`, "(7 16)"},
	{"many-args", `
(define (f a b c d e g h i) (- (+ a c e h) (+ b d g i)))
(f 1 2 3 4 5 6 7 8)`, "-4"},
	{"many-args-shuffle", `
(define (g a b c d e f2 h i) (if (zero? a) (list a b c d e f2 h i) (g (- a 1) c b e d h f2 (+ i 1))))
(g 5 1 2 3 4 5 6 0)`, "(0 2 1 4 3 6 5 5)"},
	{"swap-args", `
(define (f x y) (if (zero? x) (list x y) (f (- y 1) x)))
(f 5 7)`, "(0 2)"},
	{"complex-args", `
(define (h n) (+ n 1))
(define (g a b c) (+ a (* b 10) (* c 100)))
(g (h 1) (h 2) (h 3))`, "432"},
	{"nested-complex", `
(define (f x) (* x 2))
(+ (f (+ (f 1) (f 2))) (f 3))`, "18"},
	{"boxes", "(let ([b (box 5)]) (set-box! b (+ (unbox b) 1)) (unbox b))", "6"},
	{"letrec-general", "(letrec ([x 5] [f (lambda () x)]) (f))", "5"},
	{"internal-define", `
(define (outer x)
  (define (double y) (* y 2))
  (define (quad y) (double (double y)))
  (quad x))
(outer 3)`, "12"},
	{"quasiquote", "(let ([x 3] [y '(4 5)]) `(1 2 ,x ,@y 6))", "(1 2 3 4 5 6)"},
	{"callcc-escape", "(+ 1 (call/cc (lambda (k) (k 10) 999)))", "11"},
	{"callcc-normal", "(+ 1 (call/cc (lambda (k) 10)))", "11"},
	{"callcc-deep", `
(define (product l)
  (call/cc
    (lambda (exit)
      (let loop ([l l])
        (cond [(null? l) 1]
              [(zero? (car l)) (exit 0)]
              [else (* (car l) (loop (cdr l)))])))))
(list (product '(1 2 3)) (product '(1 0 3)))`, "(6 0)"},
	{"tak-small", `
(define (tak x y z)
  (if (not (< y x)) z
      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
(tak 8 4 2)`, "3"},
	{"ack", `
(define (ack m n)
  (cond [(zero? m) (+ n 1)]
        [(zero? n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(ack 2 3)`, "9"},
	{"string-sym", "(list (string->symbol \"hey\") (symbol->string 'yo) (number->string 123) (string->number \"45\"))",
		`(hey "yo" "123" 45)`},
	{"char-ops", `(list (char->integer #\a) (integer->char 98) (char<? #\a #\b))`, `(97 #\b #t)`},
	{"eq-eqv-equal", "(list (eq? 'a 'a) (eqv? 1.5 1.5) (equal? '(1 (2)) '(1 (2))) (eq? '(1) '(1)))",
		"(#t #t #t #f)"},
	{"assoc-update", `
(define (update alist key val)
  (cond [(null? alist) (list (cons key val))]
        [(eq? (caar alist) key) (cons (cons key val) (cdr alist))]
        [else (cons (car alist) (update (cdr alist) key val))]))
(update '((a . 1) (b . 2)) 'b 99)`, "((a . 1) (b . 99))"},
	{"flonums", "(list (* 1.5 2) (/ 1 4) (sqrt 16.0) (< 1.5 2))", "(3. 0.25 4. #t)"},
	{"shadow-prim", "(define (car x) 'my-car) (car '(1 2))", "my-car"},
	{"prim-as-value", "(map car '((1 2) (3 4)))", "(1 3)"},
	{"set-global", "(define x 1) (set! x 42) x", "42"},
	{"begin-effects", `
(define log '())
(define (note x) (set! log (cons x log)) x)
(begin (note 1) (note 2) (note 3))
(reverse log)`, "(1 2 3)"},
	{"deep-nest-if", `
(define (classify n)
  (if (< n 10) (if (< n 5) (if (< n 2) 'tiny 'small) 'medium)
      (if (< n 100) 'large 'huge)))
(map classify '(1 3 7 50 1000))`, "(tiny small medium large huge)"},
	{"arg-eval-order-free", `
(define (f a b) (- a b))
(let ([x 10] [y 3]) (f (+ x y) (- x y)))`, "6"},
	{"tail-call-stack-args", `
(define (f a b c d e g h i j) (if (zero? a) j (f (- a 1) b c d e g h i (+ j 1))))
(f 4 0 0 0 0 0 0 0 100)`, "104"},
	{"capture-in-vector", `
(define v (make-vector 2 0))
(vector-set! v 0 (lambda (x) (* x 3)))
(vector-set! v 1 (lambda (x) (+ x 3)))
(list ((vector-ref v 0) 5) ((vector-ref v 1) 5))`, "(15 8)"},
	{"mutual-fix", `
(define (run)
  (letrec ([e? (lambda (n) (if (zero? n) #t (o? (- n 1))))]
           [o? (lambda (n) (if (zero? n) #f (e? (- n 1))))])
    (list (e? 4) (o? 4))))
(run)`, "(#t #f)"},
	{"fix-capture", `
(define (make n)
  (letrec ([f (lambda (i) (if (= i n) '() (cons i (f (+ i 1)))))])
    (f 0)))
(make 4)`, "(0 1 2 3)"},
}

// allOptions enumerates the strategy matrix. Only greedy and naive
// generate code; the optimal column generates greedy's code with the
// §3.1 optimum measured at every call site (ComputeShuffleStats), and
// its cases also check that measurement (checkOptimum).
func allOptions() []compilerCase {
	var out []compilerCase
	configs := []struct {
		name string
		cfg  vm.Config
	}{
		{"c6l6", vm.DefaultConfig()},
		{"c0l0", vm.BaselineConfig()},
		{"c2l1", vm.Config{ArgRegs: 2, UserRegs: 1, ScratchRegs: 8}},
	}
	shuffles := []struct {
		name    string
		method  codegen.ShuffleMethod
		optimum bool
	}{
		{"greedy", codegen.ShuffleGreedy, false},
		{"naive", codegen.ShuffleNaive, false},
		{"optimal", codegen.ShuffleGreedy, true},
	}
	for _, cfg := range configs {
		for _, saves := range []codegen.SaveStrategy{codegen.SaveLazy, codegen.SaveEarly, codegen.SaveLate, codegen.SaveSimple} {
			for _, restores := range []codegen.RestorePolicy{codegen.RestoreEager, codegen.RestoreLazy} {
				for _, shuffle := range shuffles {
					opts := DefaultOptions()
					opts.Config = cfg.cfg
					opts.Saves = saves
					opts.Restores = restores
					opts.Shuffle = shuffle.method
					opts.ComputeShuffleStats = shuffle.optimum
					out = append(out, compilerCase{
						name: fmt.Sprintf("%s/%s-saves/%s-restores/%s-shuffle", cfg.name, saves, restores, shuffle.name),
						opts: opts,
					})
				}
			}
		}
	}
	return out
}

type compilerCase struct {
	name string
	opts Options
}

// checkOptimum compiles src with the §3.1 optimum measured and checks
// the measurement against the shuffler that generated the code: the
// code is the same as without the measurement, every call site is
// counted once, the optimum never exceeds the shuffler's temporaries,
// every cyclic call site needs at least one, and the suboptimal-site
// counts agree with the totals.
func checkOptimum(t *testing.T, name, src string, opts Options) {
	t.Helper()
	measured, err := Compile(src, opts)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	plain := opts
	plain.ComputeShuffleStats = false
	unmeasured, err := Compile(src, plain)
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if measured.Program.Disassemble() != unmeasured.Program.Disassemble() {
		t.Errorf("%s: measuring the optimum changed the generated code", name)
	}
	st := measured.Stats
	if st.SitesOptimal+st.SitesSuboptimal != st.CallSites {
		t.Errorf("%s: %d optimal + %d suboptimal sites, want %d call sites", name, st.SitesOptimal, st.SitesSuboptimal, st.CallSites)
	}
	if st.OptimalTemps > st.ShuffleTemps {
		t.Errorf("%s: optimum %d temporaries > shuffler's %d", name, st.OptimalTemps, st.ShuffleTemps)
	}
	if st.OptimalTemps < st.CyclicCallSites {
		t.Errorf("%s: optimum %d temporaries < %d cyclic call sites", name, st.OptimalTemps, st.CyclicCallSites)
	}
	if (st.SitesSuboptimal == 0) != (st.OptimalTemps == st.ShuffleTemps) || (st.SitesSuboptimal == 0) != (st.ExtraTempsWorst == 0) {
		t.Errorf("%s: %d suboptimal sites, worst excess %d, but optimum %d against %d temporaries", name, st.SitesSuboptimal, st.ExtraTempsWorst, st.OptimalTemps, st.ShuffleTemps)
	}
}

// TestDifferentialAllStrategies is the central correctness theorem of
// the reproduction: for every program and every (register count, save
// strategy, restore policy, shuffler) combination, compiled execution —
// with poisoned registers at call boundaries — matches both the expected
// value and the reference interpreter. The optimal-shuffle cases also
// check the §3.1 optimum measured on each program.
func TestDifferentialAllStrategies(t *testing.T) {
	for _, p := range testPrograms {
		// Oracle first.
		iv, err := Interpret(p.src, false, nil)
		if err != nil {
			t.Fatalf("%s: interpreter failed: %v", p.name, err)
		}
		if got := prim.WriteString(iv); got != p.want {
			t.Fatalf("%s: interpreter = %s, want %s", p.name, got, p.want)
		}
	}
	for _, c := range allOptions() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, p := range testPrograms {
				if c.opts.ComputeShuffleStats {
					checkOptimum(t, p.name, p.src, c.opts)
				}
				v, _, err := RunValidated(p.src, c.opts, nil)
				if err != nil {
					t.Errorf("%s: %v", p.name, err)
					continue
				}
				if got := prim.WriteString(v); got != p.want {
					t.Errorf("%s: compiled = %s, want %s", p.name, got, p.want)
				}
			}
		})
	}
}

// TestNoDefensiveRestores: under the eager policy, the pass-2 analysis
// must cover every register use; the emitter's at-use fallback must
// never fire.
func TestNoDefensiveRestores(t *testing.T) {
	for _, p := range testPrograms {
		c, err := Compile(p.src, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if c.Stats.DefensiveRestores != 0 {
			t.Errorf("%s: %d defensive restores", p.name, c.Stats.DefensiveRestores)
		}
	}
}

// TestOutputAgreement: programs that print must produce identical output
// in both engines.
func TestOutputAgreement(t *testing.T) {
	src := `
(define (show x) (display x) (newline))
(for-each show '(1 two "three"))
(write "done")
(newline)
42`
	var iout, cout strings.Builder
	iv, err := Interpret(src, false, &iout)
	if err != nil {
		t.Fatal(err)
	}
	cv, _, err := RunValidated(src, DefaultOptions(), &cout)
	if err != nil {
		t.Fatal(err)
	}
	if iout.String() != cout.String() {
		t.Errorf("output mismatch:\ninterp:   %q\ncompiled: %q", iout.String(), cout.String())
	}
	if prim.WriteString(iv) != prim.WriteString(cv) {
		t.Errorf("value mismatch: %s vs %s", prim.WriteString(iv), prim.WriteString(cv))
	}
}

// TestRuntimeErrorsAgree: programs that fail must fail in both engines.
func TestRuntimeErrorsAgree(t *testing.T) {
	bad := []string{
		"(car 1)",
		"(vector-ref (vector 1 2) 9)",
		"(undefined-procedure 1 2)",
		"((lambda (x) x) 1 2)",
		"(error \"deliberate\" 1 2)",
		"(+ 'a 1)",
		"(1 2 3)",
	}
	for _, src := range bad {
		if _, err := Interpret(src, false, nil); err == nil {
			t.Errorf("interp(%q): expected error", src)
		}
		if _, _, err := RunValidated(src, DefaultOptions(), nil); err == nil {
			t.Errorf("compiled(%q): expected error", src)
		}
	}
}

func TestArityErrorMessage(t *testing.T) {
	_, _, err := RunValidated("(define (f x y) x) (f 1)", DefaultOptions(), nil)
	if err == nil || !strings.Contains(err.Error(), "expects 2 arguments") {
		t.Errorf("got %v", err)
	}
}

// TestTailCallsDontGrowStack: a million-iteration loop must not grow the
// activation side-stack or the frame stack.
func TestTailCallsDontGrowStack(t *testing.T) {
	src := "(let loop ([i 0]) (if (= i 1000000) 'done (loop (+ i 1))))"
	v, counters, err := Run(src, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if prim.WriteString(v) != "done" {
		t.Errorf("got %s", prim.WriteString(v))
	}
	if counters.TailCalls < 1000000 {
		t.Errorf("expected ≥1e6 tail calls, got %d", counters.TailCalls)
	}
	if counters.Calls > 1000 {
		t.Errorf("loop should use tail calls, got %d non-tail calls", counters.Calls)
	}
}

// TestStackRefsOrdering reproduces the paper's headline claim in
// miniature: with six argument registers, lazy saves produce no more
// stack references than early or late saves, and far fewer than the
// zero-register baseline.
func TestStackRefsOrdering(t *testing.T) {
	src := `
(define (tak x y z)
  (if (not (< y x)) z
      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
(tak 14 7 0)`
	refs := func(opts Options) int64 {
		_, counters, err := Run(src, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return counters.StackRefs()
	}
	base := DefaultOptions()
	base.Config = vm.BaselineConfig()
	baseline := refs(base)

	lazy := DefaultOptions()
	lazyRefs := refs(lazy)

	early := DefaultOptions()
	early.Saves = codegen.SaveEarly
	earlyRefs := refs(early)

	late := DefaultOptions()
	late.Saves = codegen.SaveLate
	lateRefs := refs(late)

	if lazyRefs >= baseline {
		t.Errorf("lazy (%d) should beat the 0-register baseline (%d)", lazyRefs, baseline)
	}
	if lazyRefs > earlyRefs {
		t.Errorf("lazy (%d) should not exceed early (%d)", lazyRefs, earlyRefs)
	}
	if lazyRefs > lateRefs {
		t.Errorf("lazy (%d) should not exceed late (%d)", lazyRefs, lateRefs)
	}
	reduction := 1 - float64(lazyRefs)/float64(baseline)
	if reduction < 0.4 {
		t.Errorf("lazy reduction vs baseline only %.0f%%", reduction*100)
	}
}

// TestEffectiveLeafStatistics checks the Table 2 phenomenon on a mixed
// workload: effective leaves must strictly exceed syntactic leaves.
func TestEffectiveLeafStatistics(t *testing.T) {
	src := `
(define (leaf x) (+ x 1))
(define (eff-leaf x f) (if (pair? x) (f x) (leaf x)))
(define (internal x) (leaf (eff-leaf x car)))
(let loop ([i 0] [acc 0])
  (if (= i 100) acc (loop (+ i 1) (+ acc (internal i)))))`
	_, counters, err := Run(src, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if counters.EffectiveLeaves() <= counters.SyntacticLeaves {
		t.Errorf("effective leaves (%d) should exceed syntactic leaves (%d)",
			counters.EffectiveLeaves(), counters.SyntacticLeaves)
	}
	if counters.ClassifiedActivations() == 0 {
		t.Error("no activations classified")
	}
}

// TestDumpDisassembly sanity-checks the disassembler output.
func TestDumpDisassembly(t *testing.T) {
	c, err := Compile("(define (f x) (+ x 1)) (f 1)", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	asm := c.Program.Disassemble()
	for _, frag := range []string{"main:", "entry", "call", "return", "halt"} {
		if !strings.Contains(asm, frag) {
			t.Errorf("disassembly missing %q:\n%s", frag, asm)
		}
	}
}
