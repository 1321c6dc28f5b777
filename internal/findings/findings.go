// Package findings defines the structured finding format shared by the
// repository's static passes: the translation validator
// (internal/verify), the optimality analyzer (internal/analysis) and
// the interprocedural save/restore audit (internal/dataflow), which run
// over compiled VM code, and the source linter (internal/srclint),
// which runs over the repository's own Go source. All report the same
// shape — a kind plus the location the finding anchors to
// (pc/register/slot for VM-code passes, file/line for source passes) —
// so tooling (lsrc -json, lsrd's /v1/verify and /v1/lint) consumes one
// format.
package findings

import (
	"encoding/json"
	"io"
)

// Finding is one statically detected fact: an invariant violation in
// compiled code (tool "verify"), detected waste (tool "lint"),
// cross-call waste only a whole-program view can see (tool
// "interproc"), an arena-lifetime escape (tool "arena"), or a
// source-level contract violation (tool "srclint").
type Finding struct {
	// Tool identifies the producing pass: "verify", "lint",
	// "interproc", "arena" or "srclint".
	Tool string `json:"tool"`
	// Kind is the pass-specific finding kind (e.g. "missing-restore",
	// "redundant-save").
	Kind string `json:"kind"`
	// Proc names the enclosing procedure ("" if none).
	Proc string `json:"proc,omitempty"`
	// File and Line anchor source-level findings (tool "srclint") to
	// repository source; VM-code findings leave them zero.
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	// PC is the offending instruction's address (-1 if none).
	PC int `json:"pc"`
	// Instr is the disassembled instruction at PC ("" if none).
	Instr string `json:"instr,omitempty"`
	// Reg is the register involved, Slot the frame or outgoing slot
	// involved (-1 if none).
	Reg  int `json:"reg"`
	Slot int `json:"slot"`
	// CallPC is the related call's address (-1 if none).
	CallPC int `json:"call_pc"`
	// Msg is a one-line human description.
	Msg string `json:"msg"`
	// Witness is a static control path from the procedure entry to the
	// point where the finding manifests.
	Witness []int `json:"witness,omitempty"`
}

// Report is the JSON envelope emitted by lsrc -json: the findings of
// one pass over one program, plus an optional pass-specific summary.
type Report struct {
	Tool     string    `json:"tool"`
	Findings []Finding `json:"findings"`
	// Summary carries pass-specific aggregate counts (the lint pass's
	// waste totals); nil for passes without one.
	Summary any `json:"summary,omitempty"`
}

// WriteJSON renders r as indented JSON followed by a newline.
func WriteJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
