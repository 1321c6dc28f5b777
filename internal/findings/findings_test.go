package findings

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the round-trip golden file")

// goldenReport exercises every field of the envelope across the tools
// that emit it: a VM-code finding with a witness path, a source-level
// finding using the File/Line anchors, and the interprocedural and
// arena kinds introduced with internal/dataflow.
func goldenReport() Report {
	return Report{
		Tool: "interproc",
		Findings: []Finding{
			{
				Tool: "interproc", Kind: "cross-call-dead-restore", Proc: "f",
				PC: 394, Instr: "restore r2 <- frame[1]", Reg: 2, Slot: 1, CallPC: 392,
				Msg:     "restore of r2 after call to g: g provably preserves r2",
				Witness: []int{390, 392, 394},
			},
			{
				Tool: "interproc", Kind: "cross-call-redundant-save", Proc: "f",
				PC: 390, Instr: "save frame[1] <- r2", Reg: 2, Slot: 1, CallPC: 392,
				Msg: "save of r2 read only by cross-call-dead restores",
			},
			{
				Tool: "arena", Kind: "arena-stale-global-read", Proc: "main",
				PC: 12, Instr: "global r3 <- g", Reg: 3, Slot: 0, CallPC: -1,
				Msg: "global g may hold arena structure from a previous run",
			},
			{
				Tool: "srclint", Kind: "program-mutation",
				File: "internal/vm/instr.go", Line: 42,
				PC: -1, Reg: -1, Slot: -1, CallPC: -1,
				Msg: "assignment to vm.Program field outside the allowlist",
			},
		},
		Summary: map[string]any{"cross_dead_restores": 1, "cross_redundant_saves": 1},
	}
}

// TestReportGoldenRoundTrip pins the wire format: the envelope must
// marshal to the committed golden bytes, and unmarshal → marshal must
// reproduce them byte for byte (no field is dropped, renamed, or
// reordered by a round trip). lsrd's /v1 endpoints and lsrc -json
// assume this stability.
func TestReportGoldenRoundTrip(t *testing.T) {
	var direct bytes.Buffer
	if err := WriteJSON(&direct, goldenReport()); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, direct.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(direct.Bytes(), want) {
		t.Errorf("marshal drifted from golden file\n got: %s\nwant: %s", direct.Bytes(), want)
	}

	var decoded Report
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteJSON(&again, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Errorf("marshal → unmarshal → marshal is not byte-identical\n got: %s\nwant: %s", again.Bytes(), want)
	}
}

// TestFindingOmitEmpty pins which fields vanish when unset — consumers
// key on presence (File/Line only for source findings, Witness only
// when a path exists), so a change to the omitempty set is a wire
// format change.
func TestFindingOmitEmpty(t *testing.T) {
	b, err := json.Marshal(Finding{Tool: "lint", Kind: "dead-restore", PC: 3, Reg: 1, Slot: -1, CallPC: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"proc", "file", "line", "instr", "witness"} {
		if bytes.Contains(b, []byte(`"`+absent+`"`)) {
			t.Errorf("unset field %q serialized: %s", absent, b)
		}
	}
	for _, present := range []string{"tool", "kind", "pc", "reg", "slot", "call_pc", "msg"} {
		if !bytes.Contains(b, []byte(`"`+present+`"`)) {
			t.Errorf("required field %q missing: %s", present, b)
		}
	}
}
