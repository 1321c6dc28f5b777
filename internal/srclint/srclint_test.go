package srclint

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownAnalyzer(t *testing.T) {
	_, err := Run(Options{Root: ".", Analyzers: []string{"bogus"}})
	if err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("expected unknown-analyzer error, got %v", err)
	}
}

func TestReportShape(t *testing.T) {
	res := &Result{}
	rep := res.Report()
	if rep.Tool != "srclint" {
		t.Errorf("tool = %q", rep.Tool)
	}
	if rep.Findings == nil {
		t.Error("findings must serialize as [], not null")
	}
}

// TestSeededViolations is the end-to-end smoke test: it copies the
// repository to a temp dir, seeds one violation per analyzer, and runs
// the full suite the way cmd/lsrvet does. This is the proof that the
// gate actually fires on the real module layout, not just on the
// in-memory corpora above.
func TestSeededViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-analyzes the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := copyTree(root, tmp); err != nil {
		t.Fatal(err)
	}

	// Violation 1 (parity): an opcode neither engine handles.
	seed(t, filepath.Join(tmp, "internal/vm/zz_seeded.go"), `package vm

// OpBogus is a deliberately unhandled opcode (seeded violation).
const OpBogus Op = 201

// corruptProgram writes a Program field (seeded violation 2).
func corruptProgram(p *Program) {
	p.Code = nil
}
`)
	// Violation 3 (arena reachability): a per-machine Arena field on the
	// shared Program, plus a slab-owned closure pointer (closures are
	// arena-backed since the closure-slab overhaul, so a declared path
	// from Program to a Closure pins recycled memory the same way).
	replaceIn(t, filepath.Join(tmp, "internal/vm/instr.go"),
		"type Program struct {",
		"type Program struct {\n\tSeededArena *prim.Arena // seeded violation\n\tSeededBoot *prim.Closure // seeded violation\n")

	res, err := Run(DefaultOptions(tmp))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"missing-switch-case": false,
		"missing-decode-case": false,
		"program-mutation":    false,
		"arena-reachable":     false,
	}
	for _, f := range res.Findings {
		if _, ok := want[f.Kind]; ok {
			want[f.Kind] = true
		} else {
			t.Errorf("unexpected finding on seeded copy: %s: %s", f.Kind, f.Msg)
		}
	}
	for kind, hit := range want {
		if !hit {
			t.Errorf("seeded violation not detected: %s", kind)
		}
	}
}

func seed(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func replaceIn(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("%s: seed anchor %q not found", path, old)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the module working tree (regular files only, .git
// and perfbench's .bench_build cache excluded) so tests can corrupt a
// throwaway checkout.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// TestRelativeRootPositions runs the suite the way lsrvet does with its
// default -root ., from inside a module: findings must name their files
// relative to the root, not by absolute path.
func TestRelativeRootPositions(t *testing.T) {
	dir := t.TempDir()
	seed(t, filepath.Join(dir, "go.mod"), "module vmtest\n\ngo 1.22\n")
	seed(t, filepath.Join(dir, "vmtest.go"), immutSrc)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	res, err := Run(Options{Root: ".", Analyzers: []string{"immutable"}, Immutable: immutCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("the seeded module produced no findings")
	}
	for _, f := range res.Findings {
		if f.File != "vmtest.go" {
			t.Errorf("finding at %s:%d, want the root-relative vmtest.go", f.File, f.Line)
		}
	}
}
