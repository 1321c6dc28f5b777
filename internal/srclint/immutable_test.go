package srclint

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/findings"
)

// immutSrc is the immutability negative corpus: a miniature Program
// with one allowlisted writer and six distinct violation shapes.
const immutSrc = `package vmtest

type Proc struct {
	Frame int
}

type Program struct {
	Code  []uint32
	Procs []Proc
	N     int
}

func (p *Program) engine() {
	p.Code = append(p.Code, 1)
}

func mutateDirect(p *Program) {
	p.Code = nil
}

func mutateElem(p *Program) {
	p.Code[0] = 7
}

func mutateInc(p *Program) {
	p.N++
}

func mutateCopy(p *Program, src []uint32) {
	copy(p.Code, src)
}

func mutateNested(p *Program) {
	p.Procs[0].Frame = 3
}

func mutateAlias(p *Program) {
	q := p
	q.N = 4
}

func readsOK(p *Program) int {
	n := p.N
	code := p.Code
	_ = code
	return n
}
`

func immutCfg() ImmutabilityConfig {
	return ImmutabilityConfig{
		Type:  "vmtest.Program",
		Allow: []string{"(*vmtest.Program).engine"},
	}
}

func checkImmutSrc(t *testing.T, src string, cfg ImmutabilityConfig) []findings.Finding {
	t.Helper()
	pkg, err := CheckSource("vmtest", src)
	if err != nil {
		t.Fatal(err)
	}
	return CheckImmutability("", []*Pkg{pkg}, cfg)
}

func TestImmutabilityViolations(t *testing.T) {
	fs := checkImmutSrc(t, immutSrc, immutCfg())
	wantIn := []string{
		"vmtest.mutateDirect",
		"vmtest.mutateElem",
		"vmtest.mutateInc",
		"vmtest.mutateCopy",
		"vmtest.mutateNested",
		"vmtest.mutateAlias",
	}
	if len(fs) != len(wantIn) {
		t.Fatalf("got %d findings, want %d: %+v", len(fs), len(wantIn), fs)
	}
	for i, fn := range wantIn {
		if fs[i].Kind != "program-mutation" {
			t.Errorf("finding %d kind = %q", i, fs[i].Kind)
		}
		if !strings.Contains(fs[i].Msg, "in "+fn+":") {
			t.Errorf("finding %d not attributed to %s: %q", i, fn, fs[i].Msg)
		}
		if fs[i].File != "vmtest.go" || fs[i].Line == 0 {
			t.Errorf("finding %d anchored at %s:%d", i, fs[i].File, fs[i].Line)
		}
	}
}

func TestImmutabilityAllowlist(t *testing.T) {
	fs := checkImmutSrc(t, immutSrc, immutCfg())
	for _, f := range fs {
		if strings.Contains(f.Msg, "engine") {
			t.Errorf("allowlisted writer flagged: %q", f.Msg)
		}
	}
	// Without the allowlist, engine() is flagged too.
	cfg := immutCfg()
	cfg.Allow = nil
	all := checkImmutSrc(t, immutSrc, cfg)
	if len(all) != len(fs)+1 {
		t.Fatalf("expected exactly one extra finding without allowlist, got %d vs %d", len(all), len(fs))
	}
}

// TestArenaReachability seeds the violation the Forbid config exists
// for: a per-machine Arena reachable from the shared Program, here
// buried two hops deep behind a pointer and a slice so the walk has to
// actually traverse the field graph.
func TestArenaReachability(t *testing.T) {
	src := `package vmtest

type Arena struct{ n int }

type Ctx struct {
	Out   int
	Arena *Arena
}

type ProcInfo struct {
	Name string
	Ctxs []Ctx
}

type Program struct {
	Code  []uint32
	Procs []ProcInfo
}

// Machine may hold an Arena: it is per-run state, not shared.
type Machine struct {
	prog  *Program
	arena *Arena
}
`
	cfg := immutCfg()
	cfg.Forbid = []string{"vmtest.Arena"}
	fs := checkImmutSrc(t, src, cfg)
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(fs), fs)
	}
	f := fs[0]
	if f.Kind != "arena-reachable" {
		t.Errorf("kind = %q", f.Kind)
	}
	if !strings.Contains(f.Msg, "vmtest.Program.Procs.Ctxs.Arena") {
		t.Errorf("finding does not name the access path: %q", f.Msg)
	}
	if f.File != "vmtest.go" || f.Line == 0 {
		t.Errorf("finding anchored at %s:%d", f.File, f.Line)
	}

	// The same layout without the offending field is clean: the Machine's
	// own arena pointer must NOT trip the check (Machine is not Program).
	clean := strings.Replace(src, "\tArena *Arena\n", "", 1)
	if fs := checkImmutSrc(t, clean, cfg); len(fs) != 0 {
		t.Fatalf("arena-free layout flagged: %+v", fs)
	}
}

// TestArenaReachabilityCycle guards the walk against recursive types.
func TestArenaReachabilityCycle(t *testing.T) {
	src := `package vmtest

type Program struct {
	Next *Program
	Tree *Node
}

type Node struct {
	Kids []*Node
}
`
	cfg := immutCfg()
	cfg.Forbid = []string{"vmtest.Arena"}
	if fs := checkImmutSrc(t, src, cfg); len(fs) != 0 {
		t.Fatalf("cyclic layout flagged: %+v", fs)
	}
}

func TestImmutabilityUnrelatedTypePasses(t *testing.T) {
	src := `package vmtest

type Program struct{ N int }
type Other struct{ N int }

func fine(o *Other) {
	o.N = 1
	o.N++
}
`
	if fs := checkImmutSrc(t, src, immutCfg()); len(fs) != 0 {
		t.Fatalf("writes to unrelated type flagged: %+v", fs)
	}
}

// TestImmutabilityGolden pins the exact findings JSON the corpus
// produces, so the report shape is itself under test.
func TestImmutabilityGolden(t *testing.T) {
	fs := checkImmutSrc(t, immutSrc, immutCfg())
	var buf bytes.Buffer
	if err := findings.WriteJSON(&buf, findings.Report{Tool: "srclint", Findings: fs}); err != nil {
		t.Fatal(err)
	}
	goldenPath := "testdata/immutable_golden.json"
	if os.Getenv("SRCLINT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with SRCLINT_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("findings JSON drifted from %s (regenerate with SRCLINT_UPDATE_GOLDEN=1):\n%s", goldenPath, buf.String())
	}
}
