// Package prelude holds the Scheme-level run-time library. Primitives
// (package prim) are deliberately first-order, so the classic
// higher-order and list-walking procedures live here, written in Scheme
// and run as ordinary procedures, which is what makes library calls
// show up in the dynamic call-graph statistics of the paper's Table 2.
// The interpreter expands Source in front of every program. The
// compiler compiles it once per code-affecting options key, as Chez
// Scheme builds its own library, and links each program after that
// code (internal/compiler); the result is the code compiling Source and
// the program as one text gives.
package prelude

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Version returns the hex SHA-256 of Source. Compiled output depends on
// the prelude text, so the hash participates in any content-addressed
// cache key over compilations (internal/service); it changes exactly
// when the library changes.
func Version() string {
	versionOnce.Do(func() {
		sum := sha256.Sum256([]byte(Source))
		version = hex.EncodeToString(sum[:])
	})
	return version
}

var (
	versionOnce sync.Once
	version     string
)

// Source is the library's text. Every program is read as if it
// followed Source: its definitions come first in the global table, the
// procedure table and the code.
const Source = `
(define (not x) (if x #f #t))

(define (list? l)
  (if (null? l) #t (if (pair? l) (list? (cdr l)) #f)))

(define (length l)
  (let loop ([l l] [n 0])
    (if (null? l) n (loop (cdr l) (+ n 1)))))

(define (append a b)
  (if (null? a) b (cons (car a) (append (cdr a) b))))

(define (reverse l)
  (let loop ([l l] [acc '()])
    (if (null? l) acc (loop (cdr l) (cons (car l) acc)))))

(define (memq x l)
  (cond [(null? l) #f]
        [(eq? x (car l)) l]
        [else (memq x (cdr l))]))

(define (memv x l)
  (cond [(null? l) #f]
        [(eqv? x (car l)) l]
        [else (memv x (cdr l))]))

(define (member x l)
  (cond [(null? l) #f]
        [(equal? x (car l)) l]
        [else (member x (cdr l))]))

(define (assq x l)
  (cond [(null? l) #f]
        [(eq? x (car (car l))) (car l)]
        [else (assq x (cdr l))]))

(define (assv x l)
  (cond [(null? l) #f]
        [(eqv? x (car (car l))) (car l)]
        [else (assv x (cdr l))]))

(define (assoc x l)
  (cond [(null? l) #f]
        [(equal? x (car (car l))) (car l)]
        [else (assoc x (cdr l))]))

(define (list-tail l n)
  (if (zero? n) l (list-tail (cdr l) (- n 1))))

(define (list-ref l n)
  (if (zero? n) (car l) (list-ref (cdr l) (- n 1))))

(define (last-pair l)
  (if (pair? (cdr l)) (last-pair (cdr l)) l))

(define (map f l)
  (if (null? l) '() (cons (f (car l)) (map f (cdr l)))))

(define (map2 f l1 l2)
  (if (null? l1) '() (cons (f (car l1) (car l2)) (map2 f (cdr l1) (cdr l2)))))

(define (for-each f l)
  (if (null? l)
      (void)
      (begin (f (car l)) (for-each f (cdr l)))))

(define (for-each2 f l1 l2)
  (if (null? l1)
      (void)
      (begin (f (car l1) (car l2)) (for-each2 f (cdr l1) (cdr l2)))))

(define (filter p l)
  (cond [(null? l) '()]
        [(p (car l)) (cons (car l) (filter p (cdr l)))]
        [else (filter p (cdr l))]))

(define (fold-left f acc l)
  (if (null? l) acc (fold-left f (f acc (car l)) (cdr l))))

(define (fold-right f acc l)
  (if (null? l) acc (f (car l) (fold-right f acc (cdr l)))))

(define (iota n)
  (let loop ([i (- n 1)] [acc '()])
    (if (negative? i) acc (loop (- i 1) (cons i acc)))))

(define (list-copy l)
  (if (null? l) '() (cons (car l) (list-copy (cdr l)))))
`
