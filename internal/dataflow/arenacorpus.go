package dataflow

import (
	"repro/internal/prim"
	"repro/internal/sexp"
	"repro/internal/vm"
)

// Seeded-violation corpus for the arena-lifetime analysis. Each entry
// is a hand-built program that breaks exactly one arena rule; the gate
// (TestArenaCorpus, and bench.ArenaSweep through TestArenaSweep)
// requires the analysis to report every expected kind on every entry —
// a mutation test for the analysis itself, so a regression that
// silently blinds a rule fails loudly instead of letting the emitter
// drift. The programs are analyzed, never run: several would corrupt
// shared Program state if executed, which is the point.

// ArenaCase is one seeded violation.
type ArenaCase struct {
	// Name identifies the case in gate output.
	Name string
	// Rule is the DESIGN.md §15 obligation the program violates.
	Rule string
	// Want lists the finding kinds the analysis must report (at least
	// one finding of each kind).
	Want []string
	// Strict analyzes with ArenaOptions.StrictResult set.
	Strict bool
	// Prog is the seeded program.
	Prog *vm.Program
}

// corpusArena allocates the pair cells the seeded constants embed. The
// constants deliberately live for the lifetime of the corpus — exactly
// the Program-lifetime sharing the unprotected-constant rule exists to
// catch.
var corpusArena prim.Arena

// corpusProgram builds a program around a hand-written main body:
// [halt, entry args=0 frame=8, body...], followed by any extra
// procedures. Globals are named cells starting unbound.
func corpusProgram(globals []sexp.Symbol, body []vm.Instr, procs ...corpusProc) *vm.Program {
	code := []vm.Instr{
		{Op: vm.OpHalt},
		{Op: vm.OpEntry, A: 0, B: 8},
	}
	code = append(code, body...)
	infos := []vm.ProcInfo{{Name: "main", Entry: 1}}
	for _, pr := range procs {
		infos = append(infos, vm.ProcInfo{Name: pr.name, Entry: len(code)})
		code = append(code, pr.body...)
	}
	return &vm.Program{
		Code:        code,
		Procs:       infos,
		MainIndex:   0,
		GlobalNames: globals,
		PrimGlobals: make([]*prim.Def, len(globals)),
		Config:      vm.DefaultConfig(),
	}
}

type corpusProc struct {
	name string
	body []vm.Instr
}

// withConst appends a constant (not marked ConstMutable; the seeded
// cases rely on that) and returns its index.
func withConst(p *vm.Program, v prim.Value) int {
	p.Consts = append(p.Consts, v)
	p.ConstMutable = append(p.ConstMutable, false)
	return len(p.Consts) - 1
}

// withPrim appends a primitive reference and returns its index.
func withPrim(p *vm.Program, name string) int {
	p.Prims = append(p.Prims, prim.Lookup(sexp.Symbol(name)))
	return len(p.Prims) - 1
}

// ArenaViolationCorpus builds the seeded programs fresh on every call
// (analyses may not share state through them).
func ArenaViolationCorpus() []ArenaCase {
	pairConst := func() prim.Value {
		return prim.PairV(corpusArena.NewPair(prim.FixV(1), prim.Empty))
	}
	vecConst := func() prim.Value {
		return prim.VecV(&prim.Vector{Items: []prim.Value{prim.FixV(1), prim.FixV(2)}})
	}

	var cases []ArenaCase

	// 1. A pair constant not marked ConstMutable: every load aliases the
	// shared Program value instead of getting an arena copy.
	{
		p := corpusProgram(nil, []vm.Instr{
			{Op: vm.OpLoadConst, A: vm.RegRV, B: 0},
			{Op: vm.OpReturn},
		})
		withConst(p, pairConst())
		cases = append(cases, ArenaCase{
			Name: "const-unprotected-pair",
			Rule: "constants containing mutable structure must be marked ConstMutable",
			Want: []string{KindArenaConstUnprotected},
			Prog: p,
		})
	}

	// 2. Same violation through a vector constant.
	{
		p := corpusProgram(nil, []vm.Instr{
			{Op: vm.OpLoadConst, A: vm.RegRV, B: 0},
			{Op: vm.OpReturn},
		})
		withConst(p, vecConst())
		cases = append(cases, ArenaCase{
			Name: "const-unprotected-vector",
			Rule: "constants containing mutable structure must be marked ConstMutable",
			Want: []string{KindArenaConstUnprotected},
			Prog: p,
		})
	}

	// 3. Mutating structure loaded from an unprotected constant: the
	// set-car! would be visible to every machine sharing the Program.
	{
		p := corpusProgram(nil, []vm.Instr{
			{Op: vm.OpLoadConst, A: 3, B: 0},
			{Op: vm.OpLoadConst, A: 4, B: 1},
			{Op: vm.OpPrim, A: vm.RegRV, B: 0, Regs: []int{3, 4}},
			{Op: vm.OpReturn},
		})
		withConst(p, pairConst())
		withConst(p, prim.FixV(9))
		withPrim(p, "set-car!")
		cases = append(cases, ArenaCase{
			Name: "const-mutation",
			Rule: "no mutating primitive may receive unprotected constant structure",
			Want: []string{KindArenaConstUnprotected, KindArenaConstMutation},
			Prog: p,
		})
	}

	// 4. Reading a global before main re-stores it, where a later store
	// proves the global holds arena structure: on a re-run after Recycle
	// the read observes recycled cells from the previous run.
	{
		p := corpusProgram([]sexp.Symbol{"g"}, []vm.Instr{
			{Op: vm.OpLoadGlobal, A: 3, B: 0}, // read g before the store
			{Op: vm.OpLoadConst, A: 4, B: 0},
			{Op: vm.OpPrim, A: 5, B: 0, Regs: []int{4, 4}},
			{Op: vm.OpStoreGlobal, A: 5, B: 0}, // g <- fresh cons
			{Op: vm.OpMove, A: vm.RegRV, B: 3},
			{Op: vm.OpReturn},
		})
		withConst(p, prim.FixV(1))
		withPrim(p, "cons")
		cases = append(cases, ArenaCase{
			Name: "stale-global-read-direct",
			Rule: "arena-holding globals must be re-stored before any same-run read",
			Want: []string{KindArenaStaleGlobalRead},
			Prog: p,
		})
	}

	// 5. The same stale read hidden behind a call: main calls f before
	// storing g, and f reads g. Catching this one requires the
	// transitive global-read summaries, not just a scan of main.
	{
		p := corpusProgram([]sexp.Symbol{"g"}, []vm.Instr{
			{Op: vm.OpClosure, A: 3, B: 1},
			{Op: vm.OpMove, A: vm.RegCP, B: 3},
			{Op: vm.OpCall, A: 0, B: 8}, // f reads g here
			{Op: vm.OpLoadConst, A: 4, B: 0},
			{Op: vm.OpPrim, A: 5, B: 0, Regs: []int{4, 4}},
			{Op: vm.OpStoreGlobal, A: 5, B: 0}, // g <- fresh cons
			{Op: vm.OpReturn},
		}, corpusProc{name: "f", body: []vm.Instr{
			{Op: vm.OpEntry, A: 0, B: 4},
			{Op: vm.OpLoadGlobal, A: vm.RegRV, B: 0},
			{Op: vm.OpReturn},
		}})
		withConst(p, prim.FixV(1))
		withPrim(p, "cons")
		cases = append(cases, ArenaCase{
			Name: "stale-global-read-call",
			Rule: "arena-holding globals must be re-stored before any same-run read",
			Want: []string{KindArenaStaleGlobalRead},
			Prog: p,
		})
	}

	// 6. Strict-result mode: the program result is fresh arena
	// structure, so an embedder that recycles between runs while
	// retaining results would hold dangling cells.
	{
		p := corpusProgram(nil, []vm.Instr{
			{Op: vm.OpLoadConst, A: 3, B: 0},
			{Op: vm.OpPrim, A: vm.RegRV, B: 0, Regs: []int{3, 3}},
			{Op: vm.OpReturn},
		})
		withConst(p, prim.FixV(1))
		withPrim(p, "cons")
		cases = append(cases, ArenaCase{
			Name:   "result-escape-strict",
			Rule:   "under StrictResult the program result must be arena-free",
			Want:   []string{KindArenaResultEscape},
			Strict: true,
			Prog:   p,
		})
	}

	// 7. Closure staleness: closures come from the arena's closure slab
	// (PR 10), so a capture-free closure stored into a global is arena
	// structure even though it holds no pairs — a read before the store
	// observes a recycled closure object on a re-run.
	{
		p := corpusProgram([]sexp.Symbol{"g"}, []vm.Instr{
			{Op: vm.OpLoadGlobal, A: 3, B: 0},         // read g before the store
			{Op: vm.OpClosure, A: 4, B: 1, Regs: nil}, // capture-free closure of f
			{Op: vm.OpStoreGlobal, A: 4, B: 0},        // g <- closure
			{Op: vm.OpMove, A: vm.RegRV, B: 3},
			{Op: vm.OpReturn},
		}, corpusProc{name: "f", body: []vm.Instr{
			{Op: vm.OpEntry, A: 0, B: 4},
			{Op: vm.OpReturn},
		}})
		cases = append(cases, ArenaCase{
			Name: "stale-global-read-closure",
			Rule: "closure objects are arena structure; closure-holding globals must be re-stored before any same-run read",
			Want: []string{KindArenaStaleGlobalRead},
			Prog: p,
		})
	}

	return cases
}

// CheckArenaCorpus analyzes every corpus entry and returns, per case,
// the kinds that were expected but missing (nil slices mean the gate
// holds). Shared by the test and the bench sweep.
func CheckArenaCorpus() map[string][]string {
	missing := make(map[string][]string)
	for _, c := range ArenaViolationCorpus() {
		rep := AnalyzeArena(c.Prog, ArenaOptions{StrictResult: c.Strict})
		got := make(map[string]bool, len(rep.Findings))
		for _, f := range rep.Findings {
			got[f.Kind] = true
		}
		var miss []string
		for _, k := range c.Want {
			if !got[k] {
				miss = append(miss, k)
			}
		}
		missing[c.Name] = miss
	}
	return missing
}
