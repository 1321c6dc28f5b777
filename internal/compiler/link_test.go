package compiler

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/prim"
	"repro/internal/verify"
	"repro/internal/vm"
)

// sameProgram reports how two compiled programs differ ("" when they
// are the same program).
func sameProgram(a, b *vm.Program) string {
	fields := []struct {
		name string
		x, y any
	}{
		{"Code", a.Code, b.Code},
		{"Consts", a.Consts, b.Consts},
		{"ConstMutable", a.ConstMutable, b.ConstMutable},
		{"Prims", a.Prims, b.Prims},
		{"Procs", a.Procs, b.Procs},
		{"MainIndex", a.MainIndex, b.MainIndex},
		{"GlobalNames", a.GlobalNames, b.GlobalNames},
		{"PrimGlobals", a.PrimGlobals, b.PrimGlobals},
		{"Config", a.Config, b.Config},
		{"Shuffles", a.Shuffles, b.Shuffles},
	}
	for _, f := range fields {
		if !reflect.DeepEqual(f.x, f.y) {
			return f.name + " differs"
		}
	}
	return ""
}

// compileWholeChecked is Compile with the whole-program path in place
// of the link: the reference the linked compile must equal.
func compileWholeChecked(src string, opts Options) (*vm.Program, codegen.Stats, error) {
	prog, err := parse(src, opts.NoPrelude)
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	var converted time.Time
	code, stats, err := compileWhole(prog, opts.Options, &converted)
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	if opts.Verify {
		if err := verify.Check(code); err != nil {
			return nil, codegen.Stats{}, err
		}
	}
	return code, stats, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzLinkedCompile: under every fuzz configuration, with the verifier
// and the lint on, Compile (which links after the prelude whenever the
// link test allows, and then checks only the program's own part) gives
// exactly what compiling and checking the whole program gives: the same
// error text, or the same code, pools, procedures, shuffle records,
// globals, Stats and lint report. The seed corpus covers every name the
// link test falls back on, redefined prelude procedures, a call/cc
// shadow, the expander's generated names and a syntax error.
func FuzzLinkedCompile(f *testing.F) {
	configs := fuzzConfigs()
	for i := range configs {
		configs[i].Lint = true
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("the reader's nesting is unbounded; long inputs spend the budget there")
		}
		for ci, opts := range configs {
			got, gerr := Compile(src, opts)
			want, wstats, werr := compileWholeChecked(src, opts)
			if errText(gerr) != errText(werr) {
				t.Fatalf("config %d: Compile error %q, whole-program error %q\nsource:\n%s", ci, errText(gerr), errText(werr), src)
			}
			if gerr != nil {
				continue
			}
			if d := sameProgram(got.Program, want); d != "" {
				t.Fatalf("config %d: %s\nsource:\n%s", ci, d, src)
			}
			if got.Stats != wstats {
				t.Fatalf("config %d: Stats %+v, whole program %+v\nsource:\n%s", ci, got.Stats, wstats, src)
			}
			if wlint := analysis.Analyze(want); !reflect.DeepEqual(got.Lint, wlint) {
				t.Fatalf("config %d: lint report %+v, whole program %+v\nsource:\n%s", ci, got.Lint, wlint, src)
			}
		}
	})
}

const takSource = `
(define (tak x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
(tak 18 12 6)
`

// describe renders everything a linked program owns, for comparing a
// program with itself across a mutation.
func describe(p *vm.Program) string {
	consts := make([]string, len(p.Consts))
	for i, c := range p.Consts {
		consts[i] = prim.WriteString(c)
	}
	return fmt.Sprintf("%s\n%v\n%+v\n%+v\n%v", p.Disassemble(), consts, p.Procs, p.Shuffles, p.Prims)
}

// TestLinkedProgramIsolated: a linked program shares no memory with the
// prelude's cached code, so overwriting every element of one cannot
// change the next compilation.
func TestLinkedProgramIsolated(t *testing.T) {
	first, err := Compile(takSource, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := describe(first.Program)
	p := first.Program
	for i := range p.Code {
		for j := range p.Code[i].Regs {
			p.Code[i].Regs[j] = -99
		}
		p.Code[i] = vm.Instr{Op: vm.OpJump, A: -1, B: -1, C: -1, Regs: p.Code[i].Regs}
	}
	for i := range p.Consts {
		p.Consts[i] = prim.FixV(-99)
	}
	for i := range p.Procs {
		p.Procs[i] = vm.ProcInfo{Name: "overwritten", Entry: -1}
	}
	for i := range p.Shuffles {
		for j := range p.Shuffles[i].Assigns {
			p.Shuffles[i].Assigns[j] = vm.ShuffleAssign{Target: -1, Src: -1}
		}
		p.Shuffles[i].StartPC, p.Shuffles[i].CallPC = -1, -1
	}
	second, err := Compile(takSource, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := describe(second.Program); got != before {
		t.Fatalf("second compile differs from the first before the overwrite:\n%s\nwant:\n%s", got, before)
	}
}

// TestWholeProgramPathsCheckWhole: a program that redefines a
// primitive the prelude open-codes is compiled whole and gets no
// prelude verdicts, so its checked compile covers every procedure, as
// a NoPrelude compile's does; a program linked after the prelude gets
// them.
func TestWholeProgramPathsCheckWhole(t *testing.T) {
	for _, c := range []struct {
		src    string
		linked bool
	}{
		{takSource, true},
		{"(define (car p) (cdr p))\n(car (cons 1 2))\n", false},
	} {
		prog, err := parse(c.src, false)
		if err != nil {
			t.Fatal(err)
		}
		var converted time.Time
		_, _, e, err := link(prog, DefaultOptions().Options, &converted)
		if err != nil {
			t.Fatal(err)
		}
		if (e != nil) != c.linked {
			t.Errorf("linked %t, want %t:\n%s", e != nil, c.linked, c.src)
		}
	}
}

// TestPrefixCacheBound: compiling under more register configurations
// than the cache holds keeps it at its capacity, and every compile
// still equals the whole-program one.
func TestPrefixCacheBound(t *testing.T) {
	n := 0
	for a := 0; n < prefixCapacity+8; a++ {
		for u := 0; u <= 8 && n < prefixCapacity+8; u++ {
			opts := DefaultOptions()
			opts.Config = vm.Config{ArgRegs: a, UserRegs: u, ScratchRegs: 8}
			got, err := Compile(takSource, opts)
			if err != nil {
				t.Fatalf("args=%d users=%d: %v", a, u, err)
			}
			want, _, err := compileWholeChecked(takSource, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameProgram(got.Program, want); d != "" {
				t.Fatalf("args=%d users=%d: %s", a, u, d)
			}
			n++
		}
	}
	if got := prefixes.len(); got != prefixCapacity {
		t.Fatalf("prefix cache holds %d keys after %d configurations, want its capacity %d", got, n, prefixCapacity)
	}
}

// TestInvalidOptionsMakeNoPrefix: options are validated before a cache
// entry exists, with the error a whole-program compile gives.
func TestInvalidOptionsMakeNoPrefix(t *testing.T) {
	opts := DefaultOptions()
	opts.Config.ScratchRegs = 0
	before := prefixes.len()
	_, err := Compile(takSource, opts)
	_, _, werr := compileWholeChecked(takSource, opts)
	if err == nil || errText(err) != errText(werr) {
		t.Fatalf("Compile error %v, whole-program error %v", err, werr)
	}
	if prefixes.len() > before {
		t.Fatal("an invalid configuration made a cache entry")
	}
}
