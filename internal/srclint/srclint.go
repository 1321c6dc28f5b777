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
// TestRepoClean runs the suite over this module, so tier-1 `go test
// ./...` is its gate. See DESIGN.md §13 for what each analyzer proves
// and what it deliberately cannot.
package srclint

import (
	"sort"

	"repro/internal/findings"
)

// Options scopes the analyzers for one Run.
type Options struct {
	// Root is the module root directory, as an absolute path: findings
	// name their files relative to it.
	Root string
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
// passes).
type Result struct {
	Findings []findings.Finding
}

// Run executes both analyzers over the module at opts.Root and
// aggregates their findings.
func Run(opts Options) (*Result, error) {
	// Both analyzers read the same type-checked module, loaded once.
	loader := NewLoader(opts.Root)
	pkgs, err := loader.Packages()
	if err != nil {
		return nil, err
	}
	res := &Result{Findings: CheckImmutability(opts.Root, pkgs, opts.Immutable)}
	vmPkg, err := loader.Package(opts.VMPackage)
	if err != nil {
		return nil, err
	}
	fs, err := CheckParity(opts.Root, vmPkg, opts.Parity)
	if err != nil {
		return nil, err
	}
	res.Findings = append(res.Findings, fs...)
	sortFindings(res.Findings)
	return res, nil
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
