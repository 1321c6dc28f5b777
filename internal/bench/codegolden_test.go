package bench

// The code-identity golden: for every benchmark under every sweep
// configuration, the SHA-256 of the disassembly, the SHA-256 of the
// argument-shuffle records and the allocator's static Stats. The
// disassembly names every procedure, constant, primitive and global it
// references, so the hash pins the emitted code and its pools; the
// shuffle records are what the translation validator checks the moves
// against. A change that claims to leave the emitted code alone (a
// faster pipeline, a different compilation order) must pass this
// golden unregenerated.
//
// Regenerate (only when the corpus, the sweep configurations or the
// emitted code change on purpose):
//
//	UPDATE_CODE_GOLDEN=1 go test ./internal/bench -run TestCodeGolden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/codegen"
	"repro/internal/compiler"
)

const codeGoldenPath = "testdata/code_golden.json"

// codeGoldenEntry is one (program, configuration) cell.
type codeGoldenEntry struct {
	Program     string        `json:"program"`
	Config      string        `json:"config"`
	Disassembly string        `json:"disassembly_sha256"`
	Shuffles    string        `json:"shuffles_sha256"`
	Stats       codegen.Stats `json:"stats"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// renderCodeGolden writes the schema line, then one compact JSON line
// per entry, so a diff names the program and configuration.
func renderCodeGolden(t *testing.T) []byte {
	t.Helper()
	out := []byte("lsr/code-golden/v1\n")
	for _, c := range sweepConfigs() {
		for _, p := range All() {
			compiled, err := compiler.Compile(p.Source, c.opts)
			if err != nil {
				t.Fatalf("compile %s under %s: %v", p.Name, c.name, err)
			}
			shuffles, err := json.Marshal(compiled.Program.Shuffles)
			if err != nil {
				t.Fatalf("marshal shuffles: %v", err)
			}
			line, err := json.Marshal(codeGoldenEntry{
				Program:     p.Name,
				Config:      c.name,
				Disassembly: sha256Hex([]byte(compiled.Program.Disassemble())),
				Shuffles:    sha256Hex(shuffles),
				Stats:       compiled.Stats,
			})
			if err != nil {
				t.Fatalf("marshal golden: %v", err)
			}
			out = append(append(out, line...), '\n')
		}
	}
	return out
}

// TestCodeGolden locks the emitted code to the committed golden (see
// the file comment).
func TestCodeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep; skipped with -short")
	}
	got := renderCodeGolden(t)
	if os.Getenv("UPDATE_CODE_GOLDEN") != "" {
		if err := os.WriteFile(codeGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", codeGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(codeGoldenPath)
	if err != nil {
		t.Fatalf("read golden (generate with UPDATE_CODE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		d1, d2 := firstDiff(got, want)
		t.Fatalf("emitted code diverges from the golden at byte %d:\n  got:  %s\n  want: %s\nDo not regenerate the golden to hide a diff.",
			d1, snippet(got, d1), snippet(want, d2))
	}
}
