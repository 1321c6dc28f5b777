// Package srclint is a source-level static analysis suite over this
// repository's own Go code — the same "prove it statically, don't just
// spot-check it dynamically" discipline internal/verify and
// internal/analysis apply to emitted VM code, turned onto the
// implementation itself. It is stdlib-only: syntax and types come from
// go/parser and go/types, and imports resolve through compiled export
// data obtained from `go list -export`.
//
// Two analyzers, both emitting the shared internal/findings format:
//
//   - program-immutability (immutable.go): proves no function outside
//     an allowlist writes to vm.Program fields or their backing
//     slices, statically enforcing the "Program immutable, Machine
//     per-run" concurrency contract.
//   - engine-parity (parity.go): cross-checks the opcode and dispatch
//     tables of the two execution engines: every opcode has a case in
//     both, and every dispatch code has an arm in the threaded loop.
//
// The suite is driven by cmd/lsrvet and gated in scripts/check.sh and
// CI. See DESIGN.md §13 for what each analyzer proves and what it
// deliberately cannot.
package srclint

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/findings"
)

// Options selects and scopes the analyzers for one Run.
type Options struct {
	// Root is the module root directory.
	Root string
	// Analyzers selects the passes to run ("immutable", "parity");
	// empty means both.
	Analyzers []string
	// VMPackage is the import path of the VM package the parity
	// analyzer inspects.
	VMPackage string

	Immutable ImmutabilityConfig
	Parity    ParityConfig
}

// DefaultOptions analyzes this repository with both passes.
func DefaultOptions(root string) Options {
	return Options{
		Root:      root,
		VMPackage: "repro/internal/vm",
		Immutable: DefaultImmutabilityConfig(),
		Parity:    DefaultParityConfig(),
	}
}

// Result is one Run's outcome: the findings (empty means the gate
// passes) and a timing line breaking down where the run's wall time
// went.
type Result struct {
	Findings []findings.Finding
	// Timing is a human-readable breakdown ("load 1.2s · immutable 45ms
	// · ..."); cmd/lsrvet logs it so scripts/check.sh shows where the
	// gate's time goes.
	Timing string
}

// Run executes the selected analyzers and aggregates their findings.
func Run(opts Options) (*Result, error) {
	selected := map[string]bool{}
	for _, a := range opts.Analyzers {
		if a != "immutable" && a != "parity" {
			return nil, fmt.Errorf("srclint: unknown analyzer %q (want immutable or parity)", a)
		}
		selected[a] = true
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	// Both analyzers read the same type-checked module. Load it once up
	// front so the per-analyzer spans measure analysis, not the shared
	// list+parse+check pass.
	loader := NewLoader(opts.Root)
	pkgs, err := loader.Packages()
	if err != nil {
		return nil, err
	}
	res := &Result{}
	spans := []string{fmt.Sprintf("load %s", loader.LoadTime.Round(time.Millisecond))}
	span := func(name string, start time.Time) {
		spans = append(spans, fmt.Sprintf("%s %s", name, time.Since(start).Round(time.Millisecond)))
	}

	if want("immutable") {
		start := time.Now()
		res.Findings = append(res.Findings, CheckImmutability(opts.Root, pkgs, opts.Immutable)...)
		span("immutable", start)
	}
	if want("parity") {
		start := time.Now()
		vmPkg, err := loader.Package(opts.VMPackage)
		if err != nil {
			return nil, err
		}
		fs, err := CheckParity(opts.Root, vmPkg, opts.Parity)
		if err != nil {
			return nil, err
		}
		res.Findings = append(res.Findings, fs...)
		span("parity", start)
	}

	res.Timing = strings.Join(spans, " · ")
	sortFindings(res.Findings)
	return res, nil
}

// Report wraps the result in the shared findings envelope, with a
// per-kind summary so tooling can aggregate without re-counting.
func (r *Result) Report() findings.Report {
	byKind := map[string]int{}
	for _, f := range r.Findings {
		byKind[f.Kind]++
	}
	fs := r.Findings
	if fs == nil {
		fs = []findings.Finding{}
	}
	return findings.Report{
		Tool:     "srclint",
		Findings: fs,
		Summary:  map[string]any{"by_kind": byKind},
	}
}

func sortFindings(fs []findings.Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		return fs[i].Kind < fs[j].Kind
	})
}
