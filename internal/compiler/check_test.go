package compiler_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/verify"
	"repro/internal/vm"
)

func checkedOptions() compiler.Options {
	opts := compiler.DefaultOptions()
	opts.Verify, opts.Lint = true, true
	return opts
}

// TestCheckedLintIsolated: a checked compile's lint report shares no
// memory with the prelude's cached report or with another compile's,
// so overwriting every field of one, witnesses and per-procedure
// profiles included, leaves the next checked compile unchanged.
func TestCheckedLintIsolated(t *testing.T) {
	p, err := bench.ByName("ctak")
	if err != nil {
		t.Fatal(err)
	}
	first, err := compiler.Compile(p.Source, checkedOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := first.Lint
	if len(rep.Findings) == 0 {
		t.Fatal("ctak has no lint findings to overwrite")
	}
	before := fmt.Sprintf("%+v", *rep)
	for i := range rep.Findings {
		w := rep.Findings[i].Witness
		for j := range w {
			w[j] = -99
		}
		rep.Findings[i] = analysis.Finding{Kind: -1, Proc: "overwritten", PC: -99, Instr: "overwritten", Witness: w}
	}
	for i := range rep.Procs {
		rep.Procs[i] = analysis.ProcCost{Name: "overwritten", Cycles: -99}
		rep.Procs[i].SlotReads[0] = -99
	}
	rep.Totals = analysis.Summary{Saves: -99}
	second, err := compiler.Compile(p.Source, checkedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", *second.Lint); got != before {
		t.Fatalf("second checked compile differs from the first before the overwrite:\n%s\nwant:\n%s", got, before)
	}
}

// TestCheckedVerifyErrorIsolated: the violations of a program linked
// after the prelude, checked as Compile checks it, share no memory
// with the prelude's verdicts, so overwriting them leaves the next
// check's error unchanged. A correct compile has no violations, so the
// program's tak procedure is broken first: its first save becomes a
// jump to the next instruction.
func TestCheckedVerifyErrorIsolated(t *testing.T) {
	opts := checkedOptions()
	tak, err := bench.ByName("tak")
	if err != nil {
		t.Fatal(err)
	}
	broken := func() *verify.Error {
		t.Helper()
		c, err := compiler.Compile(tak.Source, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := c.Program
		entry := -1
		for _, info := range p.Procs {
			if info.Name == "tak" {
				entry = info.Entry
			}
		}
		for pc := entry; entry >= 0 && pc < len(p.Code); pc++ {
			if in := p.Code[pc]; in.Op == vm.OpStoreSlot && in.Kind == vm.KindSave {
				p.Code[pc] = vm.Instr{Op: vm.OpJump, A: pc + 1}
				break
			}
		}
		_, err = compiler.CheckLinked(p, opts)
		var verr *verify.Error
		if !errors.As(err, &verr) {
			t.Fatalf("broken tak: got %v, want a verify error", err)
		}
		return verr
	}
	first := broken()
	before := fmt.Sprintf("%+v", first.Violations)
	witnesses := 0
	for i := range first.Violations {
		w := first.Violations[i].Witness
		witnesses += len(w)
		for j := range w {
			w[j] = -99
		}
		first.Violations[i] = verify.Violation{Kind: -1, Proc: "overwritten", PC: -99, Msg: "overwritten", Witness: w}
	}
	if witnesses == 0 {
		t.Fatal("the violations carry no witness to overwrite")
	}
	if got := fmt.Sprintf("%+v", broken().Violations); got != before {
		t.Fatalf("second check differs from the first before the overwrite:\n%s\nwant:\n%s", got, before)
	}
}

// TestFrameLimit: the code generator and the verifier share one frame
// limit. A procedure whose frame would exceed vm.MaxFrame is a compile
// error, checked or not, and one of exactly vm.MaxFrame slots compiles
// and verifies. A sum nested d deep needs a frame of d-1 slots in main.
func TestFrameLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles two programs of 65,000 nested calls; skipped with -short")
	}
	nest := func(depth int) string {
		return strings.Repeat("(+ 1 ", depth) + "0" + strings.Repeat(")", depth)
	}
	for _, opts := range []compiler.Options{compiler.DefaultOptions(), checkedOptions()} {
		c, err := compiler.Compile(nest(vm.MaxFrame+1), opts)
		if err != nil {
			t.Fatalf("verify %t: a frame of %d slots: %v", opts.Verify, vm.MaxFrame, err)
		}
		p := c.Program
		if frame := p.Code[p.Procs[p.MainIndex].Entry].B; frame != vm.MaxFrame {
			t.Fatalf("main's frame is %d slots, want %d", frame, vm.MaxFrame)
		}
		_, err = compiler.Compile(nest(vm.MaxFrame+2), opts)
		if err == nil || !strings.Contains(err.Error(), "frame of 65537 slots") {
			t.Fatalf("verify %t: a frame of %d slots: got error %v, want the code generator's frame limit", opts.Verify, vm.MaxFrame+1, err)
		}
		var verr *verify.Error
		if errors.As(err, &verr) {
			t.Fatalf("verify %t: the verifier, not the code generator, refused the frame: %v", opts.Verify, err)
		}
	}
}
