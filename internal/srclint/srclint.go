// Package srclint is a source-level static analysis suite over this
// repository's own Go code — the same "prove it statically, don't just
// spot-check it dynamically" discipline internal/verify and
// internal/analysis apply to emitted VM code, turned onto the
// implementation itself. It is stdlib-only: syntax and types come from
// go/parser and go/types, imports resolve through compiled export data
// obtained from `go list -export`, and escape diagnostics come from
// the gc compiler via `go build -gcflags=-m`.
//
// Three analyzers, all emitting the shared internal/findings format:
//
//   - alloc-baseline (alloc.go): diffs the compiler's heap-escape
//     diagnostics for the VM hot path against a committed, annotated
//     ALLOC_BASELINE.json, so allocation regressions fail CI and the
//     planned value-representation overhaul has a measurement scaffold.
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
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/findings"
)

// Options selects and scopes the analyzers for one Run.
type Options struct {
	// Root is the module root directory.
	Root string
	// Analyzers selects the passes to run ("alloc", "immutable",
	// "parity"); empty means all three.
	Analyzers []string
	// BaselinePath locates ALLOC_BASELINE.json (relative paths resolve
	// against Root).
	BaselinePath string
	// VMPackage is the import path of the VM package the parity
	// analyzer inspects.
	VMPackage string

	Alloc     AllocConfig
	Immutable ImmutabilityConfig
	Parity    ParityConfig
}

// DefaultOptions analyzes this repository with all three passes.
func DefaultOptions(root string) Options {
	return Options{
		Root:         root,
		BaselinePath: "ALLOC_BASELINE.json",
		VMPackage:    "repro/internal/vm",
		Alloc:        DefaultAllocConfig(),
		Immutable:    DefaultImmutabilityConfig(),
		Parity:       DefaultParityConfig(),
	}
}

// Result is one Run's outcome: the findings (empty means the gate
// passes) plus non-fatal warnings (stale baseline entries) and a
// timing line breaking down where the run's wall time went.
type Result struct {
	Findings []findings.Finding
	Warnings []string
	// Timing is a human-readable breakdown ("load 1.2s · immutable 45ms
	// · ..."); cmd/lsrvet logs it so scripts/check.sh shows where the
	// gate's time goes.
	Timing string
}

// Run executes the selected analyzers and aggregates their findings.
func Run(opts Options) (*Result, error) {
	selected := map[string]bool{}
	for _, a := range opts.Analyzers {
		selected[a] = true
	}
	all := len(opts.Analyzers) == 0
	want := func(name string) bool { return all || selected[name] }
	for _, a := range opts.Analyzers {
		switch a {
		case "alloc", "immutable", "parity":
		default:
			return nil, fmt.Errorf("srclint: unknown analyzer %q (want alloc, immutable or parity)", a)
		}
	}

	res := &Result{}
	loader := NewLoader(opts.Root)
	var spans []string
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		spans = append(spans, fmt.Sprintf("%s %s", name, time.Since(start).Round(time.Millisecond)))
		return err
	}

	if want("immutable") || want("parity") {
		// Load once up front so the per-analyzer spans measure analysis,
		// not the shared list+parse+check pass.
		if _, err := loader.Packages(); err != nil {
			return nil, err
		}
		spans = append(spans, fmt.Sprintf("load %s", loader.LoadTime.Round(time.Millisecond)))
	}
	if want("immutable") {
		err := timed("immutable", func() error {
			pkgs, err := loader.Packages()
			if err != nil {
				return err
			}
			res.Findings = append(res.Findings, CheckImmutability(opts.Root, pkgs, opts.Immutable)...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if want("parity") {
		err := timed("parity", func() error {
			vmPkg, err := loader.Package(opts.VMPackage)
			if err != nil {
				return err
			}
			fs, err := CheckParity(opts.Root, vmPkg, opts.Parity)
			if err != nil {
				return err
			}
			res.Findings = append(res.Findings, fs...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	if want("alloc") {
		err := timed("alloc", func() error {
			data, err := os.ReadFile(resolvePath(opts.Root, opts.BaselinePath))
			if err != nil {
				return fmt.Errorf("srclint: read alloc baseline: %v", err)
			}
			base, err := ReadBaseline(data)
			if err != nil {
				return err
			}
			sites, version, err := MeasureEscapes(opts.Root, opts.Alloc)
			if err != nil {
				return err
			}
			fs, stale, err := DiffAlloc(base, sites, version, opts.Alloc)
			if err != nil {
				return err
			}
			res.Findings = append(res.Findings, fs...)
			res.Warnings = append(res.Warnings, stale...)
			return nil
		})
		if err != nil {
			return nil, err
		}
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
		Summary: map[string]any{
			"by_kind":  byKind,
			"warnings": len(r.Warnings),
		},
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

func resolvePath(root, p string) string {
	if p == "" || strings.HasPrefix(p, "/") {
		return p
	}
	return root + "/" + p
}
