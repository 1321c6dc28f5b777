// Command lsrc is the compiler driver: it compiles and runs mini-Scheme
// programs under any allocator configuration, optionally dumping the
// generated code and the machine's measurements.
//
// Usage:
//
//	lsrc [flags] file.scm
//	lsrc [flags] -e '(+ 1 2)'
//	echo '(display "hi")' | lsrc [flags] -
//
// Flags select the save strategy (-saves lazy|early|late|simple), restore
// policy (-restores eager|lazy), shuffler (-shuffle greedy|naive),
// register counts (-argregs N -userregs N), the callee-save mode
// (-calleesave N), and diagnostics (-dump, -stats, -validate, -verify,
// -lint, -json, -interp, -bench NAME).
//
// -verify proves the emitted code sound (translation validation);
// -lint reports allocation waste the sound code still carries
// (redundant saves, dead restores, suboptimal shuffles) plus a static
// cycle estimate, and exits nonzero on waste the paper's algorithms
// promise never to emit. -interproc runs the interprocedural
// save/restore audit: with resolved callees and clobber summaries it
// flags cross-call dead restores and redundant saves the per-procedure
// lint cannot see; the findings are advisory (allocator headroom, not
// bugs) and never gate. Human-readable -lint output includes the
// interprocedural section; -lint -json stays the plain lint envelope
// (byte-compatible with lsrd's /v1/lint), while -interproc -json emits
// a separate "interproc" findings envelope. -json renders any pass's
// findings as structured JSON on stdout. -maxsteps N bounds execution
// with a fuel budget (0 = unlimited) so runaway programs terminate
// deterministically.
//
// Exit codes follow the service error taxonomy (shared with lsrd, so
// scripts and the daemon report failures identically):
//
//	0  success
//	1  internal error
//	2  usage / bad request
//	3  parse error
//	4  compile error (including translation-validation failure)
//	5  runtime error
//	6  fuel exhausted (-maxsteps)
//	7  lint waste gate (-lint found waste the paper forbids)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/service"
	"repro/lsr"
)

func main() {
	var (
		expr      = flag.String("e", "", "evaluate this expression instead of a file")
		benchName = flag.String("bench", "", "run the named benchmark from the evaluation suite")
		saves     = flag.String("saves", "lazy", "save strategy: lazy, early, late or simple")
		restores  = flag.String("restores", "eager", "restore policy: eager or lazy")
		shuffle   = flag.String("shuffle", "greedy", "argument shuffler: greedy or naive")
		argRegs   = flag.Int("argregs", 6, "argument registers (c)")
		userRegs  = flag.Int("userregs", 6, "user-variable registers (l)")
		calleeSv  = flag.Int("calleesave", 0, "enable callee-save mode with N callee-save registers")
		predict   = flag.Bool("predict", false, "enable static branch prediction")
		noPrelude = flag.Bool("no-prelude", false, "omit the Scheme runtime library")
		verifyPP  = flag.Bool("verify", false, "statically verify the emitted code (translation validation)")
		lintPP    = flag.Bool("lint", false, "run the optimality analyzer and report allocation waste (skips execution)")
		interPP   = flag.Bool("interproc", false, "run the interprocedural save/restore audit (skips execution; advisory, never gates)")
		jsonOut   = flag.Bool("json", false, "emit -verify/-lint findings as JSON")
		dump      = flag.Bool("dump", false, "print the compiled code")
		stats     = flag.Bool("stats", false, "print machine counters after the run")
		validate  = flag.Bool("validate", false, "poison registers at call boundaries (restore validation)")
		interp    = flag.Bool("interp", false, "run the reference interpreter instead of compiling")
		maxSteps  = flag.Int64("maxsteps", 0, "execution fuel: abort after N steps (0 = unlimited)")
		quiet     = flag.Bool("q", false, "suppress the result value")
	)
	flag.Parse()

	src, err := readSource(*expr, *benchName, flag.Args())
	if err != nil {
		failKind(service.KindBadRequest, err)
	}

	if *interp {
		v, err := lsr.Interpret(src, os.Stdout)
		if err != nil {
			fail(service.StageRun, err)
		}
		if !*quiet {
			fmt.Println(v)
		}
		return
	}

	opts, err := buildOptions(*saves, *restores, *shuffle, *argRegs, *userRegs, *calleeSv, *predict, *noPrelude)
	if err != nil {
		failKind(service.KindBadRequest, err)
	}
	opts.Verify = *verifyPP
	opts.Lint = *lintPP
	prog, err := lsr.Compile(src, opts)
	if err != nil {
		var verr *lsr.VerifyError
		if errors.As(err, &verr) {
			failVerify(verr, *jsonOut)
		}
		fail(service.StageCompile, err)
	}
	if *dump {
		fmt.Print(prog.Disassemble())
	}
	if *lintPP || *interPP {
		// The interprocedural section rides along with human -lint
		// output; under -json the lint envelope stays byte-compatible
		// with lsrd's /v1/lint, so the interproc envelope only appears
		// when -interproc is given explicitly.
		var irep *lsr.InterprocReport
		if *interPP || (*lintPP && !*jsonOut) {
			irep = prog.AnalyzeInterproc()
		}
		if *lintPP {
			printLint(prog.Lint, *jsonOut)
		}
		if irep != nil {
			reportInterproc(irep, *jsonOut && *interPP)
		}
		if *lintPP {
			exitOnWaste(prog.Lint)
		}
		return
	}
	res, err := prog.RunWithOptions(os.Stdout, lsr.RunOptions{
		Validate: *validate,
		MaxSteps: *maxSteps,
	})
	if err != nil {
		fail(service.StageRun, err)
	}
	if !*quiet {
		fmt.Println(res.Value)
	}
	if *stats {
		fmt.Fprint(os.Stderr, res.Counters.String())
	}
}

func readSource(expr, benchName string, args []string) (string, error) {
	switch {
	case expr != "":
		return expr, nil
	case benchName != "":
		b, err := lsr.BenchmarkByName(benchName)
		if err != nil {
			return "", err
		}
		return b.Source, nil
	case len(args) == 1 && args[0] == "-":
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	case len(args) == 1:
		data, err := os.ReadFile(args[0])
		return string(data), err
	default:
		return "", fmt.Errorf("usage: lsrc [flags] file.scm | lsrc -e EXPR | lsrc -bench NAME (see -h)")
	}
}

func buildOptions(saves, restores, shuffle string, argRegs, userRegs, calleeSave int, predict, noPrelude bool) (lsr.Options, error) {
	opts := lsr.DefaultOptions()
	var err error
	if opts.Saves, err = lsr.ParseSaveStrategy(saves); err != nil {
		return opts, err
	}
	if opts.Restores, err = lsr.ParseRestorePolicy(restores); err != nil {
		return opts, err
	}
	if opts.Shuffle, err = lsr.ParseShuffleMethod(shuffle); err != nil {
		return opts, err
	}
	opts.Config.ArgRegs = argRegs
	opts.Config.UserRegs = userRegs
	if calleeSave > 0 {
		opts.Config.CalleeSaveRegs = calleeSave
		opts.CalleeSave = true
	}
	opts.PredictBranches = predict
	opts.NoPrelude = noPrelude
	return opts, nil
}

// fail reports err and exits with the taxonomy code for its classified
// kind (parse 3, compile 4, runtime 5, fuel 6, ...), so scripts can
// distinguish failure classes the same way lsrd's HTTP statuses do.
func fail(stage service.Stage, err error) {
	failKind(service.Classify(stage, err), err)
}

func failKind(kind service.Kind, err error) {
	fmt.Fprintln(os.Stderr, "lsrc:", err)
	os.Exit(kind.ExitCode())
}

// failVerify prints each translation-validation violation on its own
// line — the invariant that broke, the offending pc and instruction,
// and a static path witnessing the failure — then exits nonzero. With
// json set the violations go to stdout in the structured finding
// format instead.
func failVerify(verr *lsr.VerifyError, json bool) {
	if json {
		r := lsr.StructuredReport{Tool: "verify", Findings: lsr.VerifyFindings(verr)}
		if err := lsr.WriteFindings(os.Stdout, r); err != nil {
			failKind(service.KindInternal, err)
		}
		os.Exit(service.KindVerify.ExitCode())
	}
	fmt.Fprintf(os.Stderr, "lsrc: translation validation failed: %d violation(s)\n", len(verr.Violations))
	for _, v := range verr.Violations {
		fmt.Fprintf(os.Stderr, "  %s\n", v)
	}
	os.Exit(service.KindVerify.ExitCode())
}

// printLint renders the optimality analyzer's report — human-readable
// or as structured JSON.
func printLint(rep *lsr.LintReport, json bool) {
	if json {
		r := lsr.StructuredReport{Tool: "lint", Findings: rep.Structured(), Summary: rep.Totals}
		if err := lsr.WriteFindings(os.Stdout, r); err != nil {
			failKind(service.KindInternal, err)
		}
		return
	}
	fmt.Print(rep.Render())
}

// exitOnWaste exits nonzero when the code carries waste the paper's
// algorithms promise never to emit (a redundant save or an excess
// shuffle move; dead restores are inherent eager-restore overhead and
// only informational).
func exitOnWaste(rep *lsr.LintReport) {
	if err := rep.WasteError(); err != nil {
		fmt.Fprintln(os.Stderr, "lsrc:", err)
		os.Exit(service.KindWaste.ExitCode())
	}
}

// reportInterproc renders the interprocedural audit: a human-readable
// section, or (with -interproc -json) its own findings envelope. The
// findings are advisory and never affect the exit code.
func reportInterproc(rep *lsr.InterprocReport, json bool) {
	if json {
		fs := rep.Findings
		if fs == nil {
			fs = []lsr.StructuredFinding{}
		}
		r := lsr.StructuredReport{Tool: "interproc", Findings: fs, Summary: rep.Totals}
		if err := lsr.WriteFindings(os.Stdout, r); err != nil {
			failKind(service.KindInternal, err)
		}
		return
	}
	fmt.Print(rep.Render())
}
