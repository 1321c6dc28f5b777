package compiler

import (
	"fmt"
	"testing"

	"repro/internal/codegen"
)

func TestVerifySmoke(t *testing.T) {
	srcs := []string{
		`(+ 1 2)`,
		`(define (f x) (+ (f2 x) x)) (define (f2 y) (* y 2)) (display (f 3))`,
		`(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (display (fib 10))`,
		`(define (tak x y z) (if (not (< y x)) z (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y)))) (display (tak 12 6 0))`,
		`(define (big a b c d e f g h) (+ a (+ b (+ c (+ d (+ e (+ f (+ g h)))))))) (display (big 1 2 3 4 5 6 7 8))`,
		`(define (swap a b) (if (= a 0) b (swap (- a 1) (+ b a)))) (display (swap 5 0))`,
		`(display (call/cc (lambda (k) (+ 1 (k 42)))))`,
		`(define (make-adder n) (lambda (x) (+ x n))) (display ((make-adder 3) 4))`,
		`(define counter (let ((n 0)) (lambda () (set! n (+ n 1)) n))) (counter) (display (counter))`,
		`(define (ack m n) (cond ((= m 0) (+ n 1)) ((= n 0) (ack (- m 1) 1)) (else (ack (- m 1) (ack m (- n 1)))))) (display (ack 2 3))`,
		`(define (even2? n) (if (= n 0) #t (odd2? (- n 1)))) (define (odd2? n) (if (= n 0) #f (even2? (- n 1)))) (display (even2? 10))`,
		`(display (map (lambda (x) (* x x)) '(1 2 3 4)))`,
	}
	for si, saves := range []codegen.SaveStrategy{codegen.SaveLazy, codegen.SaveEarly, codegen.SaveLate, codegen.SaveSimple} {
		for _, restores := range []codegen.RestorePolicy{codegen.RestoreEager, codegen.RestoreLazy} {
			for _, shuffle := range []codegen.ShuffleMethod{codegen.ShuffleGreedy, codegen.ShuffleNaive} {
				for _, cs := range []int{0, 3} {
					opts := DefaultOptions()
					opts.Verify = true
					opts.Saves = saves
					opts.Restores = restores
					opts.Shuffle = shuffle
					if cs > 0 {
						opts.Config.CalleeSaveRegs = cs
						opts.CalleeSave = true
					}
					name := fmt.Sprintf("s%d-r%v-sh%v-cs%d", si, restores, shuffle, cs)
					for i, src := range srcs {
						if _, err := Compile(src, opts); err != nil {
							t.Errorf("%s program %d: %v", name, i, err)
						}
					}
				}
			}
		}
	}
}
