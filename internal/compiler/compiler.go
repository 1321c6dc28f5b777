// Package compiler is the end-to-end pipeline: source text → reader →
// macro expansion → assignment conversion → closure conversion →
// register allocation → VM code. It is the internal engine behind the
// public lsr package. The prelude goes through the pipeline, and the
// verifier and the lint, once per process and options key, and
// programs are linked after it (link.go).
package compiler

import (
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/passes"
	"repro/internal/prelude"
	"repro/internal/prim"
	"repro/internal/sexp"
	"repro/internal/verify"
	"repro/internal/vm"
)

// Options configures a compilation; it extends the code generator's
// options with front-end choices.
type Options struct {
	codegen.Options
	// NoPrelude omits the Scheme run-time library (used by tiny tests).
	NoPrelude bool
}

// DefaultOptions is the paper's configuration.
func DefaultOptions() Options {
	return Options{Options: codegen.DefaultOptions()}
}

// Compiled bundles the results of a compilation.
type Compiled struct {
	Program *vm.Program
	Stats   codegen.Stats
	// Lint is the optimality analyzer's report (nil unless Options.Lint).
	Lint *analysis.Report
	// Phases is where the compile's wall time went. A compilation read
	// back from the on-disk store has none.
	Phases Phases
}

// Phases splits a compile's wall time where conversion ends and code
// generation begins. Verification and the lint are in neither.
type Phases struct {
	// Front is reading, expansion, and assignment and closure
	// conversion.
	Front time.Duration
	// Back is register allocation and instruction emission, including
	// the prelude's on the first compile under an options key.
	Back time.Duration
}

// Compile compiles source text. A program is linked after the
// prelude's precompiled code unless it defines or assigns a name that
// code depends on, in which case it is compiled whole; either way the
// result is the same program (see link.go). The verifier's error and
// the lint's report are those of the whole program too, but a linked
// program's checks cover only its own procedures and main, and reuse
// the prelude's verdicts, made once per options key.
func Compile(src string, opts Options) (*Compiled, error) {
	start := time.Now()
	prog, err := parse(src, opts.NoPrelude)
	if err != nil {
		return nil, err
	}
	var (
		code      *vm.Program
		stats     codegen.Stats
		e         *prefixEntry
		converted time.Time
	)
	if opts.NoPrelude {
		code, stats, err = compileWhole(prog, opts.Options, &converted)
	} else {
		code, stats, e, err = link(prog, opts.Options, &converted)
	}
	if err != nil {
		return nil, err
	}
	phases := Phases{Front: converted.Sub(start), Back: time.Since(converted)}
	var pc *preludeChecks
	if e != nil && (opts.Verify || opts.Lint) {
		pc = e.prelude()
	}
	lint, err := check(code, pc, opts)
	if err != nil {
		return nil, err
	}
	return &Compiled{Program: code, Stats: stats, Lint: lint, Phases: phases}, nil
}

// check runs the post-passes opts turns on over code. pc holds the
// verdicts of the prelude code was linked after, so that only code's
// own part is checked; with pc nil the whole program is.
func check(code *vm.Program, pc *preludeChecks, opts Options) (*analysis.Report, error) {
	from := 0
	if pc != nil {
		from = pc.from
	}
	if opts.Verify {
		if vs := verify.ProgramFrom(code, from); len(vs) > 0 {
			return nil, &verify.Error{Violations: vs}
		}
	}
	if !opts.Lint {
		return nil, nil
	}
	rep := analysis.AnalyzeFrom(code, from)
	if pc != nil {
		rep.MergePrefix(pc.lint)
	}
	return rep, nil
}

// parse reads src and expands it, after the prelude unless noPrelude.
// The reader sees src alone, so error positions are src's own.
func parse(src string, noPrelude bool) (*ast.Program, error) {
	forms, err := sexp.ReadAll(src)
	if err != nil {
		return nil, err
	}
	if noPrelude {
		return ast.ParseProgram(forms)
	}
	pl, err := loadPrelude()
	if err != nil {
		return nil, err
	}
	return ast.ParseProgramAfter(pl.ast, forms)
}

// compileWhole compiles prog, prelude and all, from its AST. It sets
// *converted to the time conversion ended and code generation began.
func compileWhole(prog *ast.Program, opts codegen.Options, converted *time.Time) (*vm.Program, codegen.Stats, error) {
	irProg, err := passes.ClosureConvert(passes.AssignConvert(prog))
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	*converted = time.Now()
	return codegen.Compile(irProg, opts)
}

// DefaultFuel is the step budget Run and RunValidated attach to every
// execution. The differential fuzzers and unit tests run through these
// helpers, and their programs finish in well under a billion steps —
// but a miscompilation can turn a terminating program into an infinite
// loop, and without fuel that hangs `go test` instead of failing it.
const DefaultFuel = 1_000_000_000

// Run compiles and executes source, returning the result value and the
// machine counters. out receives program output (nil discards).
// Execution carries the DefaultFuel step budget; a program that
// exhausts it fails with vm.ErrFuelExhausted.
func Run(src string, opts Options, out io.Writer) (prim.Value, *vm.Counters, error) {
	c, err := Compile(src, opts)
	if err != nil {
		return prim.Value{}, nil, err
	}
	m := vm.New(c.Program, out)
	m.MaxSteps = DefaultFuel
	v, err := m.Run()
	return v, &m.Counters, err
}

// RunValidated is Run with the restore-validation machine mode on
// (poisoned registers at call boundaries).
func RunValidated(src string, opts Options, out io.Writer) (prim.Value, *vm.Counters, error) {
	c, err := Compile(src, opts)
	if err != nil {
		return prim.Value{}, nil, err
	}
	m := vm.New(c.Program, out)
	m.MaxSteps = DefaultFuel
	m.ValidateRestores = true
	v, err := m.Run()
	return v, &m.Counters, err
}

// Interpret evaluates source with the reference interpreter (the
// differential-testing oracle). It reads and expands the prelude afresh
// on every call and shares nothing with the compiler's cached prelude.
func Interpret(src string, noPrelude bool, out io.Writer) (prim.Value, error) {
	forms, err := sexp.ReadAll(src)
	if err != nil {
		return prim.Value{}, err
	}
	if !noPrelude {
		lib, err := sexp.ReadAll(prelude.Source)
		if err != nil {
			return prim.Value{}, err
		}
		forms = append(lib, forms...)
	}
	prog, err := ast.ParseProgram(forms)
	if err != nil {
		return prim.Value{}, err
	}
	in := interp.New(out)
	in.MaxSteps = 500_000_000
	return in.RunProgram(prog)
}
