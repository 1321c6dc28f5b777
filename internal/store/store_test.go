package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/prim"
	"repro/internal/vm"
)

// testSources cover the constant kinds the codec must round-trip:
// fixnums (including the boxed range), flonums, characters, strings,
// symbols, nested quoted structure and vectors.
var testSources = []struct{ name, src, want string }{
	{"arith", "(define (f x) (+ x 1)) (f 41)", "42"},
	{"fib", "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 10)", "55"},
	{"quoted", `(define (f) '((a . 1) (b #\x "s" 2.5) #(1 2 3))) (f)`, `((a . 1) (b #\x "s" 2.5) #(1 2 3))`},
	{"bigfix", "(* 1152921504606846976 4)", "4611686018427387904"},
	{"strings", `(string-append "he" "llo")`, `"hello"`},
}

func compileSrc(t *testing.T, src string) *compiler.Compiled {
	t.Helper()
	c, err := compiler.Compile(src, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func runProgram(t *testing.T, p *vm.Program) (string, vm.Counters) {
	t.Helper()
	m := vm.New(p, nil)
	m.MaxSteps = 100_000_000
	v, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return prim.WriteString(v), m.Counters
}

func keyOf(src string) Key { return Key(sha256.Sum256([]byte(src))) }

// TestRoundTrip: a decoded program must be observably identical to the
// original — same result value, same deterministic counters, same
// disassembly, same stats.
func TestRoundTrip(t *testing.T) {
	for _, tc := range testSources {
		t.Run(tc.name, func(t *testing.T) {
			orig := compileSrc(t, tc.src)
			payload, err := encodeCompiled(orig)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := decodeCompiled(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Stats != orig.Stats {
				t.Errorf("stats: got %+v want %+v", got.Stats, orig.Stats)
			}
			if od, gd := orig.Program.Disassemble(), got.Program.Disassemble(); od != gd {
				t.Errorf("disassembly differs:\n--- original\n%s\n--- decoded\n%s", od, gd)
			}
			if !reflect.DeepEqual(orig.Program.ConstMutable, got.Program.ConstMutable) {
				t.Errorf("const-mutable differs")
			}
			ov, oc := runProgram(t, orig.Program)
			gv, gc := runProgram(t, got.Program)
			if ov != tc.want || gv != tc.want {
				t.Errorf("values: original %s, decoded %s, want %s", ov, gv, tc.want)
			}
			if !reflect.DeepEqual(oc, gc) {
				t.Errorf("counters differ after round trip")
			}
		})
	}
}

// TestEncodeRefusesLint: lint-bearing compilations are not persisted.
func TestEncodeRefusesLint(t *testing.T) {
	opts := compiler.DefaultOptions()
	opts.Lint = true
	c, err := compiler.Compile("(+ 1 2)", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encodeCompiled(c); err == nil {
		t.Fatal("encode accepted a lint-bearing compilation")
	}
}

func TestStorePutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := testSources[0].src
	c := compileSrc(t, src)
	key := keyOf(src)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, c); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if v, _ := runProgram(t, got.Program); v != testSources[0].want {
		t.Fatalf("got %s want %s", v, testSources[0].want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReplicaSharing: a second store opened on the same directory (a
// cold replica) serves entries written by the first.
func TestReplicaSharing(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := testSources[1].src
	key := keyOf(src)
	if err := s1.Put(key, compileSrc(t, src)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("cold replica missed a shared entry")
	}
	if v, _ := runProgram(t, got.Program); v != testSources[1].want {
		t.Fatalf("wrong value from shared entry")
	}
}

// corruptions are the crash/corruption shapes that must all read as
// clean misses: truncation at various points, bit flips in the payload,
// version skew, garbage files.
func TestCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := testSources[2].src
	key := keyOf(src)
	if err := s.Put(key, compileSrc(t, src)); err != nil {
		t.Fatal(err)
	}
	path := s.path(key)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:10] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-checksum", func(b []byte) []byte { return b[:len(b)-5] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"bit-flip", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)/2] ^= 0x40
			return c
		}},
		{"wrong-version", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[11] = 0xFE
			return c
		}},
		{"bad-magic", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[0] = 'X'
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			before := s.Stats().Corrupt
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if s.Stats().Corrupt != before+1 {
				t.Fatalf("corruption not counted")
			}
			// Miss-then-recompile: the next Put must restore service.
			if err := s.Put(key, compileSrc(t, src)); err != nil {
				t.Fatalf("re-put after corruption: %v", err)
			}
			if _, ok := s.Get(key); !ok {
				t.Fatal("entry not readable after rewrite")
			}
		})
	}
}

// TestConcurrentSameKeyWriters: N goroutines putting and getting the
// same key must never surface an error or a corrupt read — writers
// stage to temp files and rename, so readers only ever see complete
// entries.
func TestConcurrentSameKeyWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := testSources[0].src
	c := compileSrc(t, src)
	key := keyOf(src)
	const writers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, writers*2)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := s.Put(key, c); err != nil {
					errCh <- err
					return
				}
				if got, ok := s.Get(key); ok {
					if got.Stats != c.Stats {
						errCh <- fmt.Errorf("stats mismatch under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Corrupt != 0 || st.PutErrors != 0 {
		t.Fatalf("concurrent writers produced corruption: %+v", st)
	}
	// No leftover temp files.
	matches, _ := filepath.Glob(filepath.Join(s.dir, "*", "put-*.tmp"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}
