package compiler

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/prim"
	"repro/internal/vm"
)

// This file is a differential fuzzer: it generates random well-typed,
// terminating mini-Scheme programs and checks that the compiled code
// (under several allocator configurations, with register poisoning)
// agrees with the reference interpreter on every one.

// genType is the loose type discipline the generator tracks so programs
// don't die on trivial type errors (which would make runs degenerate).
type genType int

const (
	tyInt genType = iota
	tyBool
	tyPair // a cons cell whose car/cdr are ints (so car/cdr are safe)
)

// progGen generates one random program.
type progGen struct {
	rng *rand.Rand
	b   strings.Builder
	// fns[i] is the arity of top-level function fi; function i may call
	// only functions with smaller index (a DAG, so no unbounded
	// recursion).
	fns []int
	// vars in scope during expression generation, by type.
	scope map[genType][]string
	tmp   int
}

func (g *progGen) fresh(stem string) string {
	g.tmp++
	return fmt.Sprintf("%s%d", stem, g.tmp)
}

// expr emits a random expression of type ty at the given depth budget.
func (g *progGen) expr(ty genType, depth int, fnCeiling int) string {
	if depth <= 0 {
		return g.leaf(ty)
	}
	switch ty {
	case tyInt:
		switch g.rng.Intn(10) {
		case 0, 1:
			return g.leaf(ty)
		case 2:
			return fmt.Sprintf("(+ %s %s)", g.expr(tyInt, depth-1, fnCeiling), g.expr(tyInt, depth-1, fnCeiling))
		case 3:
			return fmt.Sprintf("(- %s %s)", g.expr(tyInt, depth-1, fnCeiling), g.expr(tyInt, depth-1, fnCeiling))
		case 4:
			return fmt.Sprintf("(* %s %s)", g.expr(tyInt, depth-1, fnCeiling), g.leaf(tyInt))
		case 5:
			return fmt.Sprintf("(if %s %s %s)",
				g.expr(tyBool, depth-1, fnCeiling),
				g.expr(tyInt, depth-1, fnCeiling),
				g.expr(tyInt, depth-1, fnCeiling))
		case 6:
			return g.letExpr(tyInt, depth, fnCeiling)
		case 7:
			// call an earlier function (all functions are int-valued)
			if fnCeiling > 0 {
				fi := g.rng.Intn(fnCeiling)
				args := make([]string, g.fns[fi])
				for i := range args {
					args[i] = g.expr(tyInt, depth-1, fi)
				}
				return fmt.Sprintf("(f%d %s)", fi, strings.Join(args, " "))
			}
			return g.leaf(tyInt)
		case 8:
			return fmt.Sprintf("(car %s)", g.expr(tyPair, depth-1, fnCeiling))
		default:
			// bounded named-let loop
			n := 1 + g.rng.Intn(5)
			loop := g.fresh("loop")
			i := g.fresh("i")
			acc := g.fresh("acc")
			return fmt.Sprintf("(let %s ([%s %d] [%s %s]) (if (<= %s 0) %s (%s (- %s 1) (+ %s %s))))",
				loop, i, n, acc, g.expr(tyInt, depth-1, fnCeiling),
				i, acc, loop, i, acc, g.expr(tyInt, depth-1, fnCeiling))
		}
	case tyBool:
		switch g.rng.Intn(6) {
		case 0:
			return g.leaf(ty)
		case 1:
			return fmt.Sprintf("(< %s %s)", g.expr(tyInt, depth-1, fnCeiling), g.expr(tyInt, depth-1, fnCeiling))
		case 2:
			return fmt.Sprintf("(= %s %s)", g.expr(tyInt, depth-1, fnCeiling), g.expr(tyInt, depth-1, fnCeiling))
		case 3:
			return fmt.Sprintf("(and %s %s)", g.expr(tyBool, depth-1, fnCeiling), g.expr(tyBool, depth-1, fnCeiling))
		case 4:
			return fmt.Sprintf("(or %s %s)", g.expr(tyBool, depth-1, fnCeiling), g.expr(tyBool, depth-1, fnCeiling))
		default:
			return fmt.Sprintf("(not %s)", g.expr(tyBool, depth-1, fnCeiling))
		}
	default: // tyPair
		switch g.rng.Intn(4) {
		case 0:
			return g.leaf(ty)
		case 1:
			return fmt.Sprintf("(cons %s %s)", g.expr(tyInt, depth-1, fnCeiling), g.expr(tyInt, depth-1, fnCeiling))
		case 2:
			return fmt.Sprintf("(if %s %s %s)",
				g.expr(tyBool, depth-1, fnCeiling),
				g.expr(tyPair, depth-1, fnCeiling),
				g.expr(tyPair, depth-1, fnCeiling))
		default:
			return g.letExpr(tyPair, depth, fnCeiling)
		}
	}
}

func (g *progGen) leaf(ty genType) string {
	if vars := g.scope[ty]; len(vars) > 0 && g.rng.Intn(3) > 0 {
		return vars[g.rng.Intn(len(vars))]
	}
	switch ty {
	case tyInt:
		return fmt.Sprintf("%d", g.rng.Intn(21)-10)
	case tyBool:
		if g.rng.Intn(2) == 0 {
			return "#t"
		}
		return "#f"
	default:
		return fmt.Sprintf("(cons %d %d)", g.rng.Intn(10), g.rng.Intn(10))
	}
}

// letExpr emits a let (sometimes with a set! in the body to exercise
// assignment conversion).
func (g *progGen) letExpr(ty genType, depth, fnCeiling int) string {
	bindTy := genType(g.rng.Intn(3))
	name := g.fresh("v")
	init := g.expr(bindTy, depth-1, fnCeiling)
	g.scope[bindTy] = append(g.scope[bindTy], name)
	var body string
	if bindTy == tyInt && g.rng.Intn(4) == 0 {
		body = fmt.Sprintf("(begin (set! %s (+ %s 1)) %s)", name, name, g.expr(ty, depth-1, fnCeiling))
	} else {
		body = g.expr(ty, depth-1, fnCeiling)
	}
	g.scope[bindTy] = g.scope[bindTy][:len(g.scope[bindTy])-1]
	return fmt.Sprintf("(let ([%s %s]) %s)", name, init, body)
}

// generate builds a whole program: a DAG of int-valued functions plus a
// main expression combining calls to them.
func generateProgram(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed)), scope: map[genType][]string{}}
	nFns := 1 + g.rng.Intn(4)
	var b strings.Builder
	for i := 0; i < nFns; i++ {
		arity := 1 + g.rng.Intn(3)
		g.fns = append(g.fns, arity)
		params := make([]string, arity)
		for j := range params {
			params[j] = fmt.Sprintf("p%d_%d", i, j)
		}
		g.scope = map[genType][]string{tyInt: params}
		body := g.expr(tyInt, 3+g.rng.Intn(3), i)
		fmt.Fprintf(&b, "(define (f%d %s) %s)\n", i, strings.Join(params, " "), body)
	}
	g.scope = map[genType][]string{}
	main := g.expr(tyInt, 4, nFns)
	fmt.Fprintf(&b, "%s\n", main)
	return b.String()
}

// fuzzConfigs are the allocator configurations the fuzzer samples.
func fuzzConfigs() []Options {
	mk := func(cfg vm.Config, s codegen.SaveStrategy, r codegen.RestorePolicy, sh codegen.ShuffleMethod, cs bool) Options {
		o := DefaultOptions()
		o.Config = cfg
		o.Saves = s
		o.Restores = r
		o.Shuffle = sh
		o.CalleeSave = cs
		// Every fuzzed compile also runs the static translation
		// validator, so structural violations are caught even when the
		// behavioral diff coincidentally agrees.
		o.Verify = true
		return o
	}
	def := vm.DefaultConfig()
	tiny := vm.Config{ArgRegs: 1, UserRegs: 1, ScratchRegs: 8}
	base := vm.BaselineConfig()
	csCfg := vm.Config{ArgRegs: 3, UserRegs: 2, ScratchRegs: 8, CalleeSaveRegs: 4}
	return []Options{
		mk(def, codegen.SaveLazy, codegen.RestoreEager, codegen.ShuffleGreedy, false),
		mk(def, codegen.SaveSimple, codegen.RestoreLazy, codegen.ShuffleNaive, false),
		mk(tiny, codegen.SaveLate, codegen.RestoreEager, codegen.ShuffleNaive, false),
		mk(base, codegen.SaveEarly, codegen.RestoreLazy, codegen.ShuffleGreedy, false),
		mk(csCfg, codegen.SaveLazy, codegen.RestoreEager, codegen.ShuffleGreedy, true),
		mk(csCfg, codegen.SaveLazy, codegen.RestoreLazy, codegen.ShuffleGreedy, true),
		mk(def, codegen.SaveLazy, codegen.RestoreLazy, codegen.ShuffleGreedy, false),
	}
}

// TestFuzzDifferential: every randomly generated program must produce
// the same value in the interpreter and in compiled form under every
// sampled configuration (with register poisoning on).
func TestFuzzDifferential(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 50
	}
	configs := fuzzConfigs()
	for seed := int64(0); seed < int64(n); seed++ {
		src := generateProgram(seed)
		want, ierr := Interpret(src, false, nil)
		if ierr != nil {
			// Generated programs are well-typed and terminating by
			// construction; an interpreter error indicates a generator
			// bug worth seeing.
			t.Fatalf("seed %d: interpreter error: %v\nprogram:\n%s", seed, ierr, src)
		}
		opts := configs[seed%int64(len(configs))]
		got, _, cerr := RunValidated(src, opts, nil)
		if cerr != nil {
			t.Fatalf("seed %d: compiled error: %v\nprogram:\n%s", seed, cerr, src)
		}
		if prim.WriteString(got) != prim.WriteString(want) {
			t.Fatalf("seed %d: compiled %s, interpreted %s\nprogram:\n%s",
				seed, prim.WriteString(got), prim.WriteString(want), src)
		}
	}
}

// TestFuzzVerifyAllSaveStrategies statically verifies every generated
// program under all four save strategies (the behavioral tests sample
// one configuration per seed; save placement differs structurally
// across strategies, so each must uphold the invariants on its own).
func TestFuzzVerifyAllSaveStrategies(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 25
	}
	strategies := []codegen.SaveStrategy{
		codegen.SaveLazy, codegen.SaveEarly, codegen.SaveLate, codegen.SaveSimple,
	}
	for seed := int64(0); seed < int64(n); seed++ {
		src := generateProgram(seed)
		for _, s := range strategies {
			opts := DefaultOptions()
			opts.Saves = s
			opts.Verify = true
			if _, err := Compile(src, opts); err != nil {
				t.Fatalf("seed %d strategy %v: %v\nprogram:\n%s", seed, s, err, src)
			}
		}
	}
}

// TestFuzzAllConfigsOneSeed runs a handful of seeds through *every*
// configuration, catching config-specific divergence.
func TestFuzzAllConfigsOneSeed(t *testing.T) {
	for seed := int64(1000); seed < 1010; seed++ {
		src := generateProgram(seed)
		want, err := Interpret(src, false, nil)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for ci, opts := range fuzzConfigs() {
			got, _, err := RunValidated(src, opts, nil)
			if err != nil {
				t.Fatalf("seed %d config %d: %v\n%s", seed, ci, err, src)
			}
			if prim.WriteString(got) != prim.WriteString(want) {
				t.Fatalf("seed %d config %d: %s vs %s\n%s",
					seed, ci, prim.WriteString(got), prim.WriteString(want), src)
			}
		}
	}
}
