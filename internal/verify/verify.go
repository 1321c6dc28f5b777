// Package verify is a translation validator for compiled VM code: a
// static dataflow pass that proves, per compilation, the allocator's
// placement invariants from the paper rather than sampling them
// behaviorally. It symbolically executes each procedure's instruction
// stream — registers, frame slots and outgoing-argument slots as
// abstract cells tracking undefined / defined-value / clobbered-by-call
// — with a worklist fixpoint over branch joins, and checks:
//
//   - defined-before-use: no read of an undefined or call-clobbered
//     register or slot;
//   - lazy-save soundness (§2.1.2): every register restored after a
//     call has a save of the same value into the same slot dominating
//     the call on all paths;
//   - eager-restore soundness (§3): a register read after a call is
//     clobbered unless an OpLoadSlot restore of the matching slot
//     dominates the read — such reads are reported as missing restores;
//   - shuffle validity (§2.3): each call site's emitted move sequence,
//     interpreted as a substitution, realizes the parallel assignment
//     the allocator recorded (vm.ShuffleRecord), detecting values lost
//     in transfer cycles;
//   - structural bounds: frame sizes, arities, jump targets, operand
//     pool indices, callee-save preservation and return-address
//     integrity.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/findings"
	"repro/internal/vm"
)

// Kind classifies a violation.
type Kind int

const (
	// UndefinedRegister is a read of a register no path has defined.
	UndefinedRegister Kind = iota
	// UndefinedSlot is a read of a frame or outgoing-argument slot no
	// path has written.
	UndefinedSlot
	// MissingRestore is a read of a register a call destroyed without an
	// intervening restore (§3's eager-restore invariant).
	MissingRestore
	// MissingSave is a call crossed by a save/restore pair whose save
	// does not dominate the call on every path (§2.1.2's invariant).
	MissingSave
	// ShuffleMismatch is a call whose argument registers do not hold the
	// values the recorded parallel assignment demands (§2.3).
	ShuffleMismatch
	// BadJump is a branch or jump target outside the procedure, or a
	// fall-through off its end.
	BadJump
	// BadFrame is a slot index outside the frame or a call/store-out
	// whose frame-size operand disagrees with the procedure's frame.
	BadFrame
	// BadArity is an OpEntry whose declared argument count disagrees
	// with the procedure metadata.
	BadArity
	// BadOperand is an out-of-range register, constant, primitive,
	// procedure or free-variable index, or a malformed opcode.
	BadOperand
	// BadReturn is an exit whose return address is not the one the
	// procedure was entered with.
	BadReturn
	// CalleeSaveClobbered is an exit at which a callee-save register
	// does not hold its entry value (§2.4's discipline).
	CalleeSaveClobbered
	// Unverifiable reports that the fixpoint did not converge (the code
	// has a shape the validator does not support, e.g. a backward jump).
	Unverifiable
)

func (k Kind) String() string {
	switch k {
	case UndefinedRegister:
		return "undefined-register"
	case UndefinedSlot:
		return "undefined-slot"
	case MissingRestore:
		return "missing-restore"
	case MissingSave:
		return "missing-save"
	case ShuffleMismatch:
		return "shuffle-mismatch"
	case BadJump:
		return "bad-jump"
	case BadFrame:
		return "bad-frame"
	case BadArity:
		return "bad-arity"
	case BadOperand:
		return "bad-operand"
	case BadReturn:
		return "bad-return"
	case CalleeSaveClobbered:
		return "callee-save-clobbered"
	case Unverifiable:
		return "unverifiable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Violation is one statically detected invariant breach.
type Violation struct {
	Kind Kind
	// Proc names the enclosing procedure.
	Proc string
	// PC is the offending instruction's address; Op its opcode.
	PC int
	Op vm.Op
	// Instr is the disassembled instruction at PC.
	Instr string
	// Reg is the register involved (-1 if none); Slot the frame or
	// outgoing slot involved (-1 if none).
	Reg  int
	Slot int
	// CallPC is the clobbering or crossed call's address (-1 if none).
	CallPC int
	// Msg is a one-line description.
	Msg string
	// Witness is a static control path from the procedure entry to PC
	// along which the violation manifests.
	Witness []int
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at pc %d", v.Kind, v.PC)
	if v.Proc != "" {
		fmt.Fprintf(&b, " in %s", v.Proc)
	}
	if v.Instr != "" {
		fmt.Fprintf(&b, " [%s]", v.Instr)
	}
	fmt.Fprintf(&b, ": %s", v.Msg)
	if len(v.Witness) > 0 {
		fmt.Fprintf(&b, " (path %s)", formatWitness(v.Witness))
	}
	return b.String()
}

// formatWitness renders a path compactly, eliding long middles.
func formatWitness(path []int) string {
	const head, tail = 6, 4
	var parts []string
	if len(path) <= head+tail+1 {
		for _, pc := range path {
			parts = append(parts, fmt.Sprint(pc))
		}
	} else {
		for _, pc := range path[:head] {
			parts = append(parts, fmt.Sprint(pc))
		}
		parts = append(parts, "…")
		for _, pc := range path[len(path)-tail:] {
			parts = append(parts, fmt.Sprint(pc))
		}
	}
	return strings.Join(parts, "→")
}

// Finding converts the violation to the structured finding format
// shared with the optimality analyzer (internal/analysis).
func (v Violation) Finding() findings.Finding {
	return findings.Finding{
		Tool:    "verify",
		Kind:    v.Kind.String(),
		Proc:    v.Proc,
		PC:      v.PC,
		Instr:   v.Instr,
		Reg:     v.Reg,
		Slot:    v.Slot,
		CallPC:  v.CallPC,
		Msg:     v.Msg,
		Witness: v.Witness,
	}
}

// Findings converts a violation list to structured findings.
func Findings(vs []Violation) []findings.Finding {
	out := make([]findings.Finding, len(vs))
	for i, v := range vs {
		out[i] = v.Finding()
	}
	return out
}

// Error aggregates the violations of one program.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return "verify: no violations"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d violation(s):", len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// Program statically verifies p and returns every violation found,
// ordered by address. An empty result means every check passed.
func Program(p *vm.Program) []Violation { return ProgramFrom(p, 0) }

// ProgramFrom is Program with the procedure bodies before address from
// left unchecked: it checks the main index, every procedure's entry,
// and the procedures whose entry lies at or after from. A procedure's
// verdict depends on nothing outside its extent but the shuffle records
// that start in it, p.Config and the lengths of p's pools and tables
// (DESIGN.md §18). So when p's code before from is a prefix whose
// procedures verify clean on their own (Procedures), ProgramFrom(p,
// from) equals Program(p).
func ProgramFrom(p *vm.Program, from int) []Violation {
	var out []Violation
	if p.MainIndex < 0 || p.MainIndex >= len(p.Procs) {
		out = append(out, Violation{
			Kind: BadOperand, PC: -1, Reg: -1, Slot: -1, CallPC: -1,
			Msg: fmt.Sprintf("main index %d outside procedure table (%d procs)", p.MainIndex, len(p.Procs)),
		})
	}
	procedures(p, from, &out)
	sortViolations(out)
	return out
}

// Procedures is ProgramFrom without the main index check, so it also
// verifies procedures that have no main after them, such as a prelude
// compiled ahead of the programs linked after it.
func Procedures(p *vm.Program, from int) []Violation {
	var out []Violation
	procedures(p, from, &out)
	sortViolations(out)
	return out
}

// procedures checks every procedure's entry and verifies the bodies at
// or after from, each with a symbol table of its own.
func procedures(p *vm.Program, from int, out *[]Violation) {
	for _, info := range p.Procs {
		if info.Entry <= 0 || info.Entry >= len(p.Code) {
			*out = append(*out, Violation{
				Kind: BadOperand, Proc: info.Name, PC: info.Entry, Reg: -1, Slot: -1, CallPC: -1,
				Msg: fmt.Sprintf("procedure entry %d outside code (len %d)", info.Entry, len(p.Code)),
			})
		}
	}
	for _, ext := range dataflow.Extents(p) {
		if ext.Start >= from {
			newProcVerifier(p, ext).run(out)
		}
	}
}

func sortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].PC != vs[j].PC {
			return vs[i].PC < vs[j].PC
		}
		return vs[i].Kind < vs[j].Kind
	})
}

// Check verifies p, returning nil or an *Error listing every violation.
func Check(p *vm.Program) error {
	if vs := Program(p); len(vs) > 0 {
		return &Error{Violations: vs}
	}
	return nil
}
