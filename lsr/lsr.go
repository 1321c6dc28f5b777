// Package lsr is the public API of the register-allocation library: a
// mini-Scheme compiler and register-machine simulator built around the
// PLDI'95 Burger/Waddell/Dybvig allocator — lazy saves, eager restores,
// and greedy shuffling.
//
// Quick start:
//
//	prog, err := lsr.Compile(`(define (f x) (+ x 1)) (f 41)`, lsr.DefaultOptions())
//	res, err := prog.Run(nil)
//	fmt.Println(res.Value)            // "42"
//	fmt.Println(res.Counters.StackRefs())
//
// The Options select the save strategy (lazy/early/late), the restore
// policy (eager/lazy), the argument shuffler (greedy/naive), the
// register configuration, and the §2.4 callee-save mode — every knob the
// paper's evaluation turns.
package lsr

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/findings"
	"repro/internal/prim"
	"repro/internal/verify"
	"repro/internal/vm"
)

// SaveStrategy selects where register saves are placed (§2.1, §4).
type SaveStrategy = codegen.SaveStrategy

// Save strategies.
const (
	// SaveLazy saves as soon as a call is inevitable (the paper).
	SaveLazy = codegen.SaveLazy
	// SaveEarly saves at definition points (the callee-save-style extreme).
	SaveEarly = codegen.SaveEarly
	// SaveLate saves immediately before each call (the caller-save extreme).
	SaveLate = codegen.SaveLate
	// SaveSimple places saves with the simple one-set S[E] algorithm of
	// §2.1.1 — sound but "too lazy" around short-circuit boolean tests
	// (the ablation motivating the revised algorithm).
	SaveSimple = codegen.SaveSimple
)

// RestorePolicy selects where restores are placed (§2.2).
type RestorePolicy = codegen.RestorePolicy

// Restore policies.
const (
	// RestoreEager restores immediately after each call everything
	// possibly referenced before the next call (the paper).
	RestoreEager = codegen.RestoreEager
	// RestoreLazy restores at first use and on save-region exit.
	RestoreLazy = codegen.RestoreLazy
)

// ShuffleMethod selects the argument-shuffling algorithm (§2.3).
type ShuffleMethod = codegen.ShuffleMethod

// Shuffle methods.
const (
	// ShuffleGreedy is the paper's greedy ordering with cycle breaking.
	ShuffleGreedy = codegen.ShuffleGreedy
	// ShuffleNaive evaluates arguments left to right.
	ShuffleNaive = codegen.ShuffleNaive
)

// Config is the machine's register layout.
type Config struct {
	// ArgRegs is the number of argument registers (paper default 6).
	ArgRegs int
	// UserRegs is the number of user-variable registers (paper default 6).
	UserRegs int
	// CalleeSaveRegs sizes the callee-save register file for the §2.4
	// mode.
	CalleeSaveRegs int
}

// Options configures a compilation.
type Options struct {
	Config   Config
	Saves    SaveStrategy
	Restores RestorePolicy
	Shuffle  ShuffleMethod
	// CalleeSave enables the §2.4 callee-save discipline (requires
	// Config.CalleeSaveRegs > 0).
	CalleeSave bool
	// PredictBranches enables the §6 static branch prediction extension.
	PredictBranches bool
	// ShuffleStats additionally compares the shuffler against the
	// fewest temporaries at every call site (visible in Stats). Finding
	// that optimum is NP-complete (§3.1); its cost grows with the
	// optimum, which is small on real call sites.
	ShuffleStats bool
	// NoPrelude omits the Scheme runtime library.
	NoPrelude bool
	// Verify runs the static translation validator over the emitted code
	// as a compiler post-pass: it proves the lazy-save, eager-restore and
	// shuffle invariants hold on every static path, and Compile fails
	// with the violations otherwise.
	Verify bool
	// Lint runs the static optimality analyzer over the emitted code:
	// it detects allocation waste (redundant saves, dead restores,
	// suboptimal shuffle sequences) and computes a static per-procedure
	// cycle estimate. The report is attached to the compiled Program as
	// Lint; unlike Verify it never fails the compilation.
	Lint bool
}

// DefaultOptions is the paper's configuration: six argument and six user
// registers, lazy saves, eager restores, greedy shuffling.
func DefaultOptions() Options {
	return Options{Config: Config{ArgRegs: 6, UserRegs: 6}}
}

// BaselineOptions is the Table 3 baseline: no argument or user
// registers, so all parameters and variables live on the stack.
func BaselineOptions() Options {
	return Options{}
}

func (o Options) internal() compiler.Options {
	out := compiler.DefaultOptions()
	out.Config = vm.Config{
		ArgRegs:        o.Config.ArgRegs,
		UserRegs:       o.Config.UserRegs,
		ScratchRegs:    8,
		CalleeSaveRegs: o.Config.CalleeSaveRegs,
	}
	out.Saves = o.Saves
	out.Restores = o.Restores
	out.Shuffle = o.Shuffle
	out.CalleeSave = o.CalleeSave
	out.PredictBranches = o.PredictBranches
	out.ComputeShuffleStats = o.ShuffleStats
	out.NoPrelude = o.NoPrelude
	out.Verify = o.Verify
	out.Lint = o.Lint
	return out
}

// VerifyError is the error returned by Compile when Options.Verify is
// set and the translation validator rejects the emitted code. It
// carries the individual violations for structured reporting.
type VerifyError = verify.Error

// Violation is one translation-validator finding: which invariant broke
// (missing save, missing restore, shuffle mismatch, ...), where, and a
// static path witnessing it.
type Violation = verify.Violation

// LintReport is the optimality analyzer's result: waste findings
// (redundant saves, dead restores, excess shuffle moves/temporaries),
// per-procedure static cost estimates, and aggregate counts. Attached
// to Program.Lint when Options.Lint is set.
type LintReport = analysis.Report

// LintFinding is one statically detected piece of allocation waste.
type LintFinding = analysis.Finding

// InterprocReport is the interprocedural save/restore audit's result:
// cross-call dead restores and redundant saves that only a whole-program
// view can see, plus call-site resolution totals. Produced on demand by
// Program.AnalyzeInterproc; the findings are advisory (they measure the
// headroom an interprocedural allocator would have, not emitter bugs).
type InterprocReport = dataflow.InterprocReport

// InterprocStats is the audit's aggregate totals.
type InterprocStats = dataflow.InterprocStats

// StructuredFinding is the JSON-ready finding format shared by the
// verifier and the lint analyzer (kind, pc, reg/slot, witness path).
type StructuredFinding = findings.Finding

// StructuredReport is the JSON envelope for a pass's findings.
type StructuredReport = findings.Report

// WriteFindings renders a structured report as indented JSON.
func WriteFindings(w io.Writer, r StructuredReport) error {
	return findings.WriteJSON(w, r)
}

// VerifyFindings converts a VerifyError's violations to the structured
// finding format.
func VerifyFindings(err *VerifyError) []StructuredFinding {
	return verify.Findings(err.Violations)
}

// Stats are static compilation measurements.
type Stats = codegen.Stats

// Counters are the machine's dynamic measurements (stack references,
// cycles, the Table 2 activation classification, and more).
type Counters = vm.Counters

// Slot kinds index Counters.ReadsByKind and Counters.WritesByKind to
// break stack traffic down by purpose.
const (
	KindSave    = vm.KindSave
	KindRestore = vm.KindRestore
	KindArg     = vm.KindArg
	KindTemp    = vm.KindTemp
	KindVar     = vm.KindVar
)

// CostModel charges cycles for instructions, stack traffic and load-use
// stalls.
type CostModel = vm.CostModel

// DefaultCostModel approximates an early-90s RISC.
func DefaultCostModel() CostModel { return vm.DefaultCostModel() }

// Program is a compiled program.
type Program struct {
	compiled *vm.Program
	// Stats holds the allocator's static measurements.
	Stats Stats
	// Lint holds the optimality analyzer's report (nil unless
	// Options.Lint was set).
	Lint *LintReport
}

// Compile compiles mini-Scheme source text.
func Compile(src string, opts Options) (*Program, error) {
	c, err := compiler.Compile(src, opts.internal())
	if err != nil {
		return nil, err
	}
	return &Program{compiled: c.Program, Stats: c.Stats, Lint: c.Lint}, nil
}

// Result is the outcome of running a program.
type Result struct {
	// Value is the program result in Scheme write notation.
	Value string
	// Counters are the dynamic measurements of the run.
	Counters Counters
}

// Run executes the program; out receives display/write output (nil
// discards it).
func (p *Program) Run(out io.Writer) (*Result, error) {
	return p.run(out, DefaultCostModel(), false, 0)
}

// RunValidated executes with restore validation: caller-save registers
// are poisoned at every call boundary and reads of destroyed registers
// trap. Useful when experimenting with allocator changes.
func (p *Program) RunValidated(out io.Writer) (*Result, error) {
	return p.run(out, DefaultCostModel(), true, 0)
}

// ErrFuelExhausted is returned (wrapped) by every Run variant when the
// program exhausts its step budget; match it with errors.Is.
var ErrFuelExhausted = vm.ErrFuelExhausted

// RunOptions configures one execution of a compiled Program.
type RunOptions struct {
	// Cost is the machine cost model (zero value = DefaultCostModel).
	Cost CostModel
	// Validate poisons caller-save registers at call boundaries so a
	// missing restore traps instead of yielding wrong answers.
	Validate bool
	// MaxSteps is the execution fuel (0 = unlimited): the run fails
	// with an error matching ErrFuelExhausted once the budget is spent.
	MaxSteps int64
}

// RunWithOptions executes with every run knob explicit; out receives
// display/write output (nil discards it).
func (p *Program) RunWithOptions(out io.Writer, ro RunOptions) (*Result, error) {
	cost := ro.Cost
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	return p.run(out, cost, ro.Validate, ro.MaxSteps)
}

func (p *Program) run(out io.Writer, cost CostModel, validate bool, maxSteps int64) (*Result, error) {
	m := vm.New(p.compiled, out)
	m.SetCostModel(cost)
	m.ValidateRestores = validate
	m.MaxSteps = maxSteps
	v, err := m.Run()
	if err != nil {
		return nil, err
	}
	return &Result{Value: prim.WriteString(v), Counters: m.Counters}, nil
}

// Disassemble renders the compiled code.
func (p *Program) Disassemble() string { return p.compiled.Disassemble() }

// AnalyzeInterproc runs the interprocedural save/restore waste audit
// over the compiled code: it resolves each call site's callee, computes
// transitive may-clobber summaries, and reports saves and restores that
// are provably no-ops for the program as compiled (see the lsrc -lint
// and -interproc flags for the CLI surface).
func (p *Program) AnalyzeInterproc() *InterprocReport {
	return dataflow.AnalyzeInterproc(p.compiled)
}

// Interpret evaluates source with the reference interpreter (the
// engine-independent oracle).
func Interpret(src string, out io.Writer) (string, error) {
	v, err := compiler.Interpret(src, false, out)
	if err != nil {
		return "", err
	}
	return prim.WriteString(v), nil
}

// Benchmark is one program of the paper's evaluation suite.
type Benchmark struct {
	Name        string
	Description string
	Source      string
	// Expect is the expected result in write notation.
	Expect string
	// Large marks the Table 1 large-program stand-ins.
	Large bool
}

// Benchmarks returns the evaluation suite (Gabriel benchmarks plus the
// large-program stand-ins) in table order.
func Benchmarks() []Benchmark {
	all := bench.All()
	out := make([]Benchmark, len(all))
	for i, p := range all {
		out[i] = Benchmark{
			Name:        p.Name,
			Description: p.Description,
			Source:      p.Source,
			Expect:      p.Expect,
			Large:       p.Large,
		}
	}
	return out
}

// BenchmarkByName fetches one benchmark.
func BenchmarkByName(name string) (Benchmark, error) {
	p, err := bench.ByName(name)
	if err != nil {
		return Benchmark{}, err
	}
	return Benchmark{
		Name: p.Name, Description: p.Description, Source: p.Source,
		Expect: p.Expect, Large: p.Large,
	}, nil
}

// ParseSaveStrategy parses "lazy", "early", "late" or "simple".
func ParseSaveStrategy(s string) (SaveStrategy, error) { return codegen.ParseSaveStrategy(s) }

// ParseRestorePolicy parses "eager" or "lazy".
func ParseRestorePolicy(s string) (RestorePolicy, error) { return codegen.ParseRestorePolicy(s) }

// ParseShuffleMethod parses "greedy" or "naive".
func ParseShuffleMethod(s string) (ShuffleMethod, error) { return codegen.ParseShuffleMethod(s) }
