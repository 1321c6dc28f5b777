package bench

// The differential golden for the static passes. PR 8 refactored the
// translation validator (internal/verify) and the optimality analyzer
// (internal/analysis) onto the shared CFG/fixpoint framework in
// internal/dataflow; this test proves the refactor preserved behaviour
// bit-for-bit: the findings of both passes over the full benchmark
// corpus under every sweep configuration must match a golden file that
// was generated by the PRE-refactor implementation and committed.
//
// The golden deliberately captures only the legacy, intraprocedural
// scope — the interprocedural findings PR 8 adds are additive new
// kinds, reported by analysis.AnalyzeInterprocedural and never by
// analysis.Analyze, so they cannot perturb this comparison.
//
// Regenerate (only when the corpus or the sweep configurations change,
// never to paper over a findings diff):
//
//	UPDATE_STATIC_GOLDEN=1 go test ./internal/bench -run TestStaticGoldenDifferential

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/findings"
	"repro/internal/verify"
)

const staticGoldenPath = "testdata/static_golden.json"

// staticGoldenEntry is one (program, configuration) cell of the golden:
// the verifier's findings and the analyzer's findings plus summary.
type staticGoldenEntry struct {
	Program string          `json:"program"`
	Config  string          `json:"config"`
	Verify  findings.Report `json:"verify"`
	Lint    findings.Report `json:"lint"`
}

type staticGoldenFile struct {
	Schema  string              `json:"schema"`
	Entries []staticGoldenEntry `json:"entries"`
}

// renderStaticGolden compiles every benchmark under every sweep
// configuration and captures both passes' structured findings. With
// checked unset, both passes run over the whole compiled program. With
// checked set, the compile itself runs them (Options.Verify and
// Options.Lint), which checks only the program's own part and reuses
// the prelude's verdicts; its lint report must then also equal the
// whole program's analysis, per-procedure profiles included.
func renderStaticGolden(t *testing.T, checked bool) []byte {
	t.Helper()
	var out staticGoldenFile
	out.Schema = "lsr/static-golden/v1"
	for _, c := range sweepConfigs() {
		opts := c.opts
		opts.Verify, opts.Lint = checked, checked
		for _, p := range All() {
			compiled, err := compiler.Compile(p.Source, opts)
			if err != nil {
				t.Fatalf("compile %s under %s (checked %t): %v", p.Name, c.name, checked, err)
			}
			// A checked compile that returns no error found no violation.
			var vs []verify.Violation
			rep := analysis.Analyze(compiled.Program)
			if checked {
				if !reflect.DeepEqual(compiled.Lint, rep) {
					t.Fatalf("%s under %s: the checked compile's lint report differs from the whole program's", p.Name, c.name)
				}
				rep = compiled.Lint
			} else {
				vs = verify.Program(compiled.Program)
			}
			vfs := verify.Findings(vs)
			if vfs == nil {
				vfs = []findings.Finding{}
			}
			lfs := rep.Structured()
			if lfs == nil {
				lfs = []findings.Finding{}
			}
			out.Entries = append(out.Entries, staticGoldenEntry{
				Program: p.Name,
				Config:  c.name,
				Verify:  findings.Report{Tool: "verify", Findings: vfs},
				Lint:    findings.Report{Tool: "lint", Findings: lfs, Summary: rep.Totals},
			})
		}
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden: %v", err)
	}
	return append(data, '\n')
}

// TestStaticGoldenDifferential locks the legacy static passes to the
// committed pre-refactor golden (see the file comment), both run over
// the whole program and run by the checked compile.
func TestStaticGoldenDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep; skipped with -short")
	}
	got := renderStaticGolden(t, false)
	if os.Getenv("UPDATE_STATIC_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(staticGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(staticGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", staticGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(staticGoldenPath)
	if err != nil {
		t.Fatalf("read golden (generate with UPDATE_STATIC_GOLDEN=1): %v", err)
	}
	compare := func(checked bool, got []byte) {
		if !bytes.Equal(got, want) {
			d1, d2 := firstDiff(got, want)
			t.Fatalf("static findings (checked compile %t) diverge from the pre-refactor golden at byte %d:\n  got:  %s\n  want: %s\nThe refactor onto internal/dataflow must be byte-identical; do not regenerate the golden to hide a diff.",
				checked, d1, snippet(got, d1), snippet(want, d2))
		}
	}
	compare(false, got)
	compare(true, renderStaticGolden(t, true))
}

// firstDiff returns the first byte offset at which a and b differ (in
// both, so the snippets line up even after a length divergence).
func firstDiff(a, b []byte) (int, int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, i
		}
	}
	return n, n
}

func snippet(b []byte, at int) string {
	lo := at - 80
	if lo < 0 {
		lo = 0
	}
	hi := at + 80
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}
