package vm_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/prim"
	"repro/internal/vm"
)

// steadyLoop is a hot loop whose iteration count is its source's one
// %d: src formats the program for n iterations and want is its value.
// Every loop's arithmetic runs on values above 255, because Go boxes an
// integer below 256 into an interface without allocating, so a boxing
// regression would not show on small values.
type steadyLoop struct {
	name string
	src  string
	want func(n int64) int64
}

var steadyLoops = []steadyLoop{
	{"arith", `
(define (arith n)
  (let loop ((i 0) (acc 1000))
    (if (= i n)
        acc
        (loop (+ i 1)
              (if (< acc 300) 0 (- (+ acc (* i 3)) (* i 2)))))))
(arith %d)`, func(n int64) int64 { return 1000 + n*(n-1)/2 }},

	{"call", `
(define (twice x) (+ x x))
(define (calls n)
  (let loop ((i 0) (acc 0))
    (if (= i n)
        acc
        (loop (+ i 1) (- (twice (+ acc 300)) acc)))))
(calls %d)`, func(n int64) int64 { return 600 * n }},

	{"tailcall", `
(define (ping i acc) (if (= i 0) acc (pong (- i 1) (+ acc 300))))
(define (pong i acc) (if (= i 0) acc (ping (- i 1) (+ acc 700))))
(ping %d 0)`, func(n int64) int64 { return 300*(n-n/2) + 700*(n/2) }},

	{"closure", `
(define (apply1 f x) (f x))
(define (closures n)
  (let loop ((i 0) (acc 0))
    (if (= i n)
        acc
        (loop (+ i 1) (apply1 (lambda (x) (+ (+ x i) 300)) acc)))))
(closures %d)`, func(n int64) int64 { return n*(n-1)/2 + 300*n }},

	{"pair", `
(define (pairs n)
  (let build ((i 0) (l '()))
    (if (= i n)
        (let sum ((l l) (acc 0))
          (if (null? l) acc (sum (cdr l) (+ acc (car l)))))
        (build (+ i 1) (cons (+ i 300) l)))))
(pairs %d)`, func(n int64) int64 { return n*(n-1)/2 + 300*n }},

	{"vector-string", `
(define v (make-vector 8 300))
(define s "lazysave")
(define (scan n)
  (let loop ((i 0) (j 0) (acc 1000))
    (if (= i n)
        acc
        (loop (+ i 1)
              (if (= j 7) 0 (+ j 1))
              (if (char=? (string-ref s j) #\a)
                  (+ acc (vector-ref v j))
                  (- acc 1))))))
(scan %d)`, func(n int64) int64 {
		acc := int64(1000)
		for i := int64(0); i < n; i++ {
			if j := i % 8; j == 1 || j == 5 {
				acc += 300
			} else {
				acc--
			}
		}
		return acc
	}},

	{"global", `
(define total 1000)
(define (bump! k) (set! total (+ total k)))
(define (globals n)
  (let loop ((i 0))
    (if (< i n)
        (begin (bump! 300) (loop (+ i 1)))
        total)))
(globals %d)`, func(n int64) int64 { return 1000 + 300*n }},
}

// TestSteadyStateAllocs guards the engine against an allocation whose
// count grows with the work a program does: a boxed value or a heap
// closure per executed instruction. Each loop runs on one machine,
// recycled between runs, at n and 2n iterations; the allocations of a
// recycled run must not depend on the iteration count. Allocations made
// once per run (the vector loop's make-vector, say) are allowed, and
// the property does not depend on the Go toolchain's escape analysis.
//
// It does not call t.Parallel: testing.AllocsPerRun reads the
// process-wide allocation count. Short mode, which the race-detector
// run uses, takes a tenth of the iterations.
func TestSteadyStateAllocs(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	modes := []struct {
		name string
		mode vm.CounterMode
	}{{"essential", vm.CountEssential}, {"full", vm.CountFull}}
	for _, l := range steadyLoops {
		for _, md := range modes {
			t.Run(l.name+"/"+md.name, func(t *testing.T) {
				at1, at2 := recycledAllocs(t, l, md.mode, n), recycledAllocs(t, l, md.mode, 2*n)
				t.Logf("allocations per run: %v at %d iterations, %v at %d", at1, n, at2, 2*n)
				if at1 != at2 {
					t.Error("allocations per run grow with the iteration count")
				}
			})
		}
	}
}

// recycledAllocs compiles l for n iterations under the paper's options,
// runs it once on a fresh machine, and returns the allocations of
// Recycle followed by Run, checking the value of every run.
func recycledAllocs(t *testing.T, l steadyLoop, mode vm.CounterMode, n int) float64 {
	t.Helper()
	c, err := compiler.Compile(fmt.Sprintf(l.src, n), bench.PaperOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want := prim.FixV(l.want(int64(n)))
	m := vm.New(c.Program, io.Discard)
	m.Counting = mode
	var bad error
	run := func() {
		v, err := m.Run()
		if err == nil && v != want {
			err = fmt.Errorf("got %s, want %s", prim.WriteString(v), prim.WriteString(want))
		}
		if err != nil && bad == nil {
			bad = err
		}
	}
	run()
	allocs := testing.AllocsPerRun(3, func() {
		m.Recycle()
		run()
	})
	if bad != nil {
		t.Fatalf("%d iterations: %v", n, bad)
	}
	return allocs
}
