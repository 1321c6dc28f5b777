// Package analysis is a static optimality analyzer — an allocation lint
// — for compiled VM code. Where internal/verify proves the emitted code
// is *sound*, this pass checks that it is not *wasteful*: the paper's
// claim is that lazy saves (§2.1.2), eager restores (§3) and greedy
// shuffling (§2.3, §3.1) minimize the register-traffic overhead of
// calls, and these checks make the minimality claims machine-checkable
// per compilation. It runs over the same per-procedure extents
// (dataflow.Extents) and CFGs as the verifier, reuses the
// vm.InstrEffects def-use decoder and internal/dataflow's shortest-path
// witness searches, and reports:
//
//   - redundant-save: a frame save whose slot is never read on any
//     path before the frame dies — work a lazy save placement should
//     have avoided (§2.1.2);
//   - dead-restore: a restore whose register is redefined or destroyed
//     on every path before any read — the overhead the paper concedes
//     for eager restores (§3), here quantified statically;
//   - excess-shuffle-move / excess-shuffle-temp: a call whose emitted
//     move sequence uses more instructions or temporaries than the
//     minimal parallel-move solution of its recorded assignment
//     (cycle decomposition: moves = non-trivial assigns + one per
//     transfer cycle, temporaries = one per transfer cycle);
//   - a static cycle estimate per procedure mirroring the machine's
//     cost accounting, cross-validated against dynamic counters.
//
// Every finding carries the offending pc and a shortest static path
// witness, in the structured format shared with the verifier
// (internal/findings).
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/findings"
	"repro/internal/vm"
)

// Kind classifies a lint finding.
type Kind int

const (
	// RedundantSave is a save whose slot no path reads before the value
	// dies (frame exit or overwrite).
	RedundantSave Kind = iota
	// DeadRestore is a restore whose register every path redefines or
	// destroys before reading.
	DeadRestore
	// ExcessShuffleMove is a call shuffle emitting more move
	// instructions than the minimal parallel-move sequence.
	ExcessShuffleMove
	// ExcessShuffleTemp is a call shuffle using more temporaries than
	// the transfer cycles of its assignment require.
	ExcessShuffleTemp
)

func (k Kind) String() string {
	switch k {
	case RedundantSave:
		return "redundant-save"
	case DeadRestore:
		return "dead-restore"
	case ExcessShuffleMove:
		return "excess-shuffle-move"
	case ExcessShuffleTemp:
		return "excess-shuffle-temp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Finding is one statically detected piece of allocation waste.
type Finding struct {
	Kind Kind
	// Proc names the enclosing procedure.
	Proc string
	// PC is the offending instruction's address; Op its opcode; Instr
	// its disassembly.
	PC    int
	Op    vm.Op
	Instr string
	// Reg is the register involved (-1 if none); Slot the frame slot
	// involved (-1 if none); CallPC the related call (-1 if none).
	Reg    int
	Slot   int
	CallPC int
	// Excess is the number of wasted instructions or temporaries.
	Excess int
	// Msg is a one-line description.
	Msg string
	// Witness is a static path demonstrating the waste: from the
	// procedure entry to PC, extended past PC to the point where the
	// wasted value dies (for save/restore findings).
	Witness []int
}

func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at pc %d", f.Kind, f.PC)
	if f.Proc != "" {
		fmt.Fprintf(&b, " in %s", f.Proc)
	}
	if f.Instr != "" {
		fmt.Fprintf(&b, " [%s]", f.Instr)
	}
	fmt.Fprintf(&b, ": %s", f.Msg)
	if len(f.Witness) > 0 {
		parts := make([]string, 0, len(f.Witness))
		for _, pc := range f.Witness {
			parts = append(parts, fmt.Sprint(pc))
		}
		fmt.Fprintf(&b, " (path %s)", strings.Join(parts, "→"))
	}
	return b.String()
}

// Structured converts the finding to the format shared with the
// verifier.
func (f Finding) Structured() findings.Finding {
	return findings.Finding{
		Tool:    "lint",
		Kind:    f.Kind.String(),
		Proc:    f.Proc,
		PC:      f.PC,
		Instr:   f.Instr,
		Reg:     f.Reg,
		Slot:    f.Slot,
		CallPC:  f.CallPC,
		Msg:     f.Msg,
		Witness: f.Witness,
	}
}

// ProcCost is the static per-procedure profile: instruction-site counts
// and the cycle estimate for one activation, mirroring the machine's
// accounting (dispatch cycle per instruction, memory penalty per slot
// access, load-use stalls via the readyAt rule). Indexed in parallel
// with Program.Procs / Counters.PerProc.
type ProcCost struct {
	Name string
	// Analyzed is false when the extent was too malformed to walk (the
	// verifier reports why); all other fields are then zero.
	Analyzed bool
	// Instructions is the extent's instruction count.
	Instructions int
	// Saves, Restores and ShuffleMoves count static instruction sites:
	// save stores, restore loads, and data-movement instructions inside
	// analyzable shuffle windows.
	Saves        int
	Restores     int
	ShuffleMoves int
	// ShuffleWindows counts the procedure's recorded call shuffles;
	// ShuffleWindowsChecked those whose emitted window was attributable
	// (pure data movement) and checked for minimality.
	ShuffleWindows        int
	ShuffleWindowsChecked int
	// SlotReads/SlotWrites count static slot-access sites by SlotKind
	// (prim and closure slot operands count as KindTemp reads, matching
	// the machine).
	SlotReads  [vm.NumSlotKinds]int
	SlotWrites [vm.NumSlotKinds]int
	// Cycles estimates one straight-through activation: the sum over
	// the extent of guaranteed instruction costs plus modeled load-use
	// stalls. StallCycles is the stall portion. SaveCycles,
	// RestoreCycles and ShuffleCycles attribute the estimate to the
	// three overhead categories.
	Cycles        int64
	StallCycles   int64
	SaveCycles    int64
	RestoreCycles int64
	ShuffleCycles int64
}

// Summary aggregates the report.
type Summary struct {
	// Finding counts by kind.
	RedundantSaves     int `json:"redundant_saves"`
	DeadRestores       int `json:"dead_restores"`
	ExcessShuffleMoves int `json:"excess_shuffle_moves"`
	ExcessShuffleTemps int `json:"excess_shuffle_temps"`
	// Static site totals.
	Saves                 int `json:"saves"`
	Restores              int `json:"restores"`
	ShuffleMoves          int `json:"shuffle_moves"`
	ShuffleWindows        int `json:"shuffle_windows"`
	ShuffleWindowsChecked int `json:"shuffle_windows_checked"`
}

// Report is the analyzer's result for one program.
type Report struct {
	Findings []Finding
	// Procs holds per-procedure static profiles, indexed in parallel
	// with the program's procedure table.
	Procs  []ProcCost
	Totals Summary
}

// Analyze runs the optimality analyzer over p under the default cost
// model.
func Analyze(p *vm.Program) *Report {
	return AnalyzeWithCost(p, vm.DefaultCostModel())
}

// AnalyzeWithCost runs the analyzer with an explicit cost model.
func AnalyzeWithCost(p *vm.Program, cm vm.CostModel) *Report {
	return analyze(p, cm, 0)
}

// AnalyzeFrom is Analyze with only the procedures whose entry lies at
// or after address from analyzed; the others keep just their names in
// Procs. A procedure's findings and profile depend on nothing outside
// its extent but the shuffle records that start in it, p.Config and
// the cost model (DESIGN.md §18), so merging in the report of the
// procedures before from (MergePrefix) gives Analyze(p).
func AnalyzeFrom(p *vm.Program, from int) *Report {
	return analyze(p, vm.DefaultCostModel(), from)
}

func analyze(p *vm.Program, cm vm.CostModel, from int) *Report {
	rep := &Report{Procs: make([]ProcCost, len(p.Procs))}
	for i, info := range p.Procs {
		rep.Procs[i].Name = info.Name
	}
	for _, ext := range dataflow.Extents(p) {
		if ext.Start < from {
			continue
		}
		pa := newProcAnalysis(p, cm, ext, rep)
		if pa == nil {
			continue
		}
		pa.run()
	}
	rep.finish()
	return rep
}

// MergePrefix folds pre, the report of p's procedures before address
// from, into r = AnalyzeFrom(p, from), making r equal to Analyze(p).
// pre's procedures are the first len(pre.Procs) of p's table. r shares
// no memory with pre afterwards.
func (r *Report) MergePrefix(pre *Report) {
	copy(r.Procs, pre.Procs)
	if len(pre.Findings) > 0 {
		fs := make([]Finding, 0, len(pre.Findings)+len(r.Findings))
		for _, f := range pre.Findings {
			f.Witness = slices.Clone(f.Witness)
			fs = append(fs, f)
		}
		r.Findings = append(fs, r.Findings...)
	}
	r.finish()
}

// finish computes the totals and orders the findings by address. The
// sort is stable, so findings at one pc keep the order the procedures
// and their checks reported them in.
func (r *Report) finish() {
	r.Totals = Summary{}
	for i := range r.Procs {
		pc := &r.Procs[i]
		r.Totals.Saves += pc.Saves
		r.Totals.Restores += pc.Restores
		r.Totals.ShuffleMoves += pc.ShuffleMoves
		r.Totals.ShuffleWindows += pc.ShuffleWindows
		r.Totals.ShuffleWindowsChecked += pc.ShuffleWindowsChecked
	}
	for _, f := range r.Findings {
		switch f.Kind {
		case RedundantSave:
			r.Totals.RedundantSaves++
		case DeadRestore:
			r.Totals.DeadRestores++
		case ExcessShuffleMove:
			r.Totals.ExcessShuffleMoves++
		case ExcessShuffleTemp:
			r.Totals.ExcessShuffleTemps++
		}
	}
	sort.SliceStable(r.Findings, func(i, j int) bool {
		if r.Findings[i].PC != r.Findings[j].PC {
			return r.Findings[i].PC < r.Findings[j].PC
		}
		return r.Findings[i].Kind < r.Findings[j].Kind
	})
}

// Structured converts every finding to the shared format.
func (r *Report) Structured() []findings.Finding {
	out := make([]findings.Finding, len(r.Findings))
	for i, f := range r.Findings {
		out[i] = f.Structured()
	}
	return out
}

// WasteError returns an error when the report contains findings the
// repository gates on — redundant saves or excess shuffle moves, the
// two outcomes the paper's algorithms promise never to produce — and
// nil otherwise. Dead restores are reported but not gated: eager
// restores trade some statically-dead loads for fewer dynamic stalls
// (§3), so they are quantified, not forbidden.
func (r *Report) WasteError() error {
	var bad []Finding
	for _, f := range r.Findings {
		if f.Kind == RedundantSave || f.Kind == ExcessShuffleMove {
			bad = append(bad, f)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lint: %d waste finding(s):", len(bad))
	for _, f := range bad {
		b.WriteString("\n  ")
		b.WriteString(f.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Render formats the report for humans: the summary line, per-kind
// counts, and every finding.
func (r *Report) Render() string {
	var b strings.Builder
	t := r.Totals
	fmt.Fprintf(&b, "lint: %d finding(s): %d redundant save(s), %d dead restore(s), %d excess shuffle move(s), %d excess shuffle temp(s)\n",
		len(r.Findings), t.RedundantSaves, t.DeadRestores, t.ExcessShuffleMoves, t.ExcessShuffleTemps)
	fmt.Fprintf(&b, "static sites: %d save(s), %d restore(s), %d shuffle move(s) (%d/%d shuffle windows checked)\n",
		t.Saves, t.Restores, t.ShuffleMoves, t.ShuffleWindowsChecked, t.ShuffleWindows)
	for _, f := range r.Findings {
		b.WriteString("  ")
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}
