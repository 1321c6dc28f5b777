package bench

// The differential golden for the whole-program passes in
// internal/dataflow: the interprocedural save/restore waste audit, the
// arena-lifetime escape analysis and the call-graph resolver. It was
// generated by the per-instruction fixpoint engines, before the passes
// moved onto the block-granular ones, and locks the port to that output
// byte-for-byte over the full benchmark corpus under every sweep
// configuration.
//
// Regenerate (only when the corpus or the sweep configurations change,
// never to paper over a findings diff):
//
//	UPDATE_INTERPROC_GOLDEN=1 go test ./internal/bench -run TestInterprocGoldenDifferential

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataflow"
	"repro/internal/findings"
)

const interprocGoldenPath = "testdata/interproc_golden.json"

// callGraphCounts is BuildCallGraph's call-site resolution for one
// compilation.
type callGraphCounts struct {
	Sites    int `json:"sites"`
	Resolved int `json:"resolved"`
}

// arenaGolden is one AnalyzeArena report.
type arenaGolden struct {
	Findings []findings.Finding  `json:"findings"`
	Totals   dataflow.ArenaStats `json:"totals"`
}

// interprocGoldenEntry is one (program, configuration) cell.
type interprocGoldenEntry struct {
	Program   string                  `json:"program"`
	Config    string                  `json:"config"`
	Interproc []findings.Finding      `json:"interproc"`
	Totals    dataflow.InterprocStats `json:"interproc_totals"`
	Arena     arenaGolden             `json:"arena"`
	// ArenaStrict is the report with ArenaOptions.StrictResult, which
	// adds the result-escape rule over main's exits.
	ArenaStrict arenaGolden     `json:"arena_strict"`
	CallGraph   callGraphCounts `json:"call_graph"`
}

func arenaEntry(rep *dataflow.ArenaReport) arenaGolden {
	fs := rep.Findings
	if fs == nil {
		fs = []findings.Finding{}
	}
	return arenaGolden{Findings: fs, Totals: rep.Totals}
}

// renderInterprocGolden writes the schema line, then one compact JSON
// line per entry, so a diff names the program and configuration.
func renderInterprocGolden(t *testing.T) []byte {
	t.Helper()
	out := []byte("lsr/interproc-golden/v1\n")
	for _, c := range sweepConfigs() {
		for _, p := range All() {
			compiled, err := compiler.Compile(p.Source, c.opts)
			if err != nil {
				t.Fatalf("compile %s under %s: %v", p.Name, c.name, err)
			}
			code := compiled.Program
			irep := dataflow.AnalyzeInterproc(code)
			ifs := irep.Findings
			if ifs == nil {
				ifs = []findings.Finding{}
			}
			cg := dataflow.BuildCallGraph(code)
			counts := callGraphCounts{Sites: len(cg.Sites)}
			for _, s := range cg.Sites {
				if s.Callee.Kind != dataflow.CalleeUnknown {
					counts.Resolved++
				}
			}
			line, err := json.Marshal(interprocGoldenEntry{
				Program:     p.Name,
				Config:      c.name,
				Interproc:   ifs,
				Totals:      irep.Totals,
				Arena:       arenaEntry(dataflow.AnalyzeArena(code, dataflow.ArenaOptions{})),
				ArenaStrict: arenaEntry(dataflow.AnalyzeArena(code, dataflow.ArenaOptions{StrictResult: true})),
				CallGraph:   counts,
			})
			if err != nil {
				t.Fatalf("marshal golden: %v", err)
			}
			out = append(append(out, line...), '\n')
		}
	}
	return out
}

// TestInterprocGoldenDifferential locks the whole-program passes to the
// committed golden (see the file comment).
func TestInterprocGoldenDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep; skipped with -short")
	}
	got := renderInterprocGolden(t)
	if os.Getenv("UPDATE_INTERPROC_GOLDEN") != "" {
		if err := os.WriteFile(interprocGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", interprocGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(interprocGoldenPath)
	if err != nil {
		t.Fatalf("read golden (generate with UPDATE_INTERPROC_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		d1, d2 := firstDiff(got, want)
		t.Fatalf("whole-program findings diverge from the golden at byte %d:\n  got:  %s\n  want: %s\nThe passes must stay byte-identical; do not regenerate the golden to hide a diff.",
			d1, snippet(got, d1), snippet(want, d2))
	}
}
