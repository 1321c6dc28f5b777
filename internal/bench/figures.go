package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/regset"
	"repro/internal/vm"
)

// Figure1 demonstrates the derived S_t/S_f equations for not, and, and
// or (the paper's Figure 1): it verifies each derived equation against
// its if-expansion over a corpus of random simplified-language
// expressions, and prints the paper's worked example.
func Figure1(trials int) (string, error) {
	const nRegs = 8
	r := regset.Universe(nRegs)
	rng := rand.New(rand.NewSource(1995))

	gen := func(depth int) core.Expr { return randomSimpleExpr(rng, depth, nRegs) }
	checked := 0
	for i := 0; i < trials; i++ {
		e1, e2 := gen(3), gen(3)
		s1, s2 := core.Revised(e1, r), core.Revised(e2, r)
		if core.NotSets(s1) != core.Revised(core.If{Test: e1, Then: core.False{}, Else: core.True{}}, r) {
			return "", fmt.Errorf("figure 1: not-equation mismatch on %s", e1)
		}
		if core.AndSets(s1, s2) != core.Revised(core.If{Test: e1, Then: e2, Else: core.False{}}, r) {
			return "", fmt.Errorf("figure 1: and-equation mismatch on (and %s %s)", e1, e2)
		}
		if core.OrSets(s1, s2) != core.Revised(core.If{Test: e1, Then: core.True{}, Else: e2}, r) {
			return "", fmt.Errorf("figure 1: or-equation mismatch on (or %s %s)", e1, e2)
		}
		checked += 3
	}

	var b strings.Builder
	b.WriteString("Figure 1: derived save-set equations (verified against if-expansions)\n")
	fmt.Fprintf(&b, "  S_t[(not E)]      = S_f[E]\n")
	fmt.Fprintf(&b, "  S_f[(not E)]      = S_t[E]\n")
	fmt.Fprintf(&b, "  S_t[(and E1 E2)]  = S_t[E1] ∪ S_t[E2]\n")
	fmt.Fprintf(&b, "  S_f[(and E1 E2)]  = (S_t[E1] ∪ S_f[E2]) ∩ S_f[E1]\n")
	fmt.Fprintf(&b, "  S_t[(or E1 E2)]   = S_t[E1] ∩ (S_f[E1] ∪ S_t[E2])\n")
	fmt.Fprintf(&b, "  S_f[(or E1 E2)]   = S_f[E1] ∪ S_f[E2]\n")
	fmt.Fprintf(&b, "%d derived-equation instances verified against expansion\n\n", checked)

	// The §2.1.2 worked example.
	live := regset.Of(1, 2)
	y := 3
	inner := core.If{Test: core.Var{Reg: 0}, Then: core.Call{LiveAfter: live.Add(y)}, Else: core.False{}}
	a := core.If{Test: inner, Then: core.Var{Reg: y}, Else: core.Call{LiveAfter: live}}
	b.WriteString("Worked example A = (if (if x call false) y call), L = {r1 r2}:\n")
	fmt.Fprintf(&b, "  simple algorithm:  S[A] = %s  (too lazy — saves nothing)\n", core.Simple(a))
	sets := core.Revised(a, regset.Universe(8))
	fmt.Fprintf(&b, "  revised algorithm: %s\n", core.FormatSets(sets))
	return b.String(), nil
}

// randomSimpleExpr builds a random paper-language expression.
func randomSimpleExpr(rng *rand.Rand, depth, nRegs int) core.Expr {
	r := regset.Universe(nRegs)
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return core.Var{Reg: rng.Intn(nRegs)}
		case 1:
			return core.True{}
		case 2:
			return core.False{}
		default:
			return core.Call{LiveAfter: regset.Set(rng.Uint64()) & regset.Set(r)}
		}
	}
	switch rng.Intn(6) {
	case 0:
		return core.Var{Reg: rng.Intn(nRegs)}
	case 1:
		return core.True{}
	case 2:
		return core.False{}
	case 3:
		return core.Call{LiveAfter: regset.Set(rng.Uint64()) & regset.Set(r)}
	case 4:
		return core.Seq{E1: randomSimpleExpr(rng, depth-1, nRegs), E2: randomSimpleExpr(rng, depth-1, nRegs)}
	default:
		return core.If{
			Test: randomSimpleExpr(rng, depth-1, nRegs),
			Then: randomSimpleExpr(rng, depth-1, nRegs),
			Else: randomSimpleExpr(rng, depth-1, nRegs),
		}
	}
}

// figure2Shapes are the three §2.2 control-flow shapes as Scheme
// procedures (g is an opaque call; x is the register in question; the
// driver alternates the branch condition).
var figure2Shapes = []struct {
	name, desc, src string
}{
	{
		name: "2a",
		desc: "call, then a branch that references x on one arm only",
		src: `
(define (g) 0)
(define (shape x b) (g) (if b (+ x 1) 0))
(let loop ([i 0] [acc 0])
  (if (= i 2000) acc (loop (+ i 1) (+ acc (shape i (even? i))))))`,
	},
	{
		name: "2b",
		desc: "branch where only one arm calls, then a reference to x",
		src: `
(define (g) 0)
(define (shape x b) (if b (g) 0) (+ x 1))
(let loop ([i 0] [acc 0])
  (if (= i 2000) acc (loop (+ i 1) (+ acc (shape i (even? i))))))`,
	},
	{
		name: "2c",
		desc: "x referenced outside the save region (both arms use x, one calls)",
		src: `
(define (g) 0)
(define (shape x b) (if b (begin (g) (+ x 1)) (+ x 2)))
(let loop ([i 0] [acc 0])
  (if (= i 2000) acc (loop (+ i 1) (+ acc (shape i (even? i))))))`,
	},
}

// Figure2 reproduces the §2.2 restore-placement diagrams dynamically:
// for each control-flow shape it counts the restore loads each policy
// actually executes, exhibiting the eager policy's unnecessary restores
// (2a, 2b) and the case where even the lazy policy is forced to restore
// (2c).
func Figure2() (string, error) {
	var b strings.Builder
	b.WriteString("Figure 2: eager vs lazy restore placement (executed restore loads)\n")
	fmt.Fprintf(&b, "%-4s %-62s %8s %8s\n", "", "shape", "eager", "lazy")
	for _, sh := range figure2Shapes {
		prog := &Program{Name: "fig" + sh.name, Source: sh.src, Expect: ""}
		eager, err := Measure(prog, PaperOptions())
		if err != nil {
			return "", err
		}
		lazyOpts := PaperOptions()
		lazyOpts.Restores = codegen.RestoreLazy
		lazy, err := Measure(prog, lazyOpts)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-4s %-62s %8d %8d\n", sh.name, sh.desc,
			eager.Counters.ReadsByKind[vm.KindRestore],
			lazy.Counters.ReadsByKind[vm.KindRestore])
	}
	b.WriteString("(eager restores early and sometimes needlessly; lazy avoids most, but 2c forces restores on exit of the save region)\n")
	return b.String(), nil
}

// CompileTimeStudy measures the fraction of total compilation spent in
// register allocation and code generation (the paper reports register
// allocation ≈ 7% of overall compile time). It sums the Phases record
// compiler.Compile keeps, so it times the pipeline the product runs:
// each program linked after the prelude, whose code a warm-up compile
// emits once for the options every later compile shares.
func CompileTimeStudy(progs []*Program, repeats int) (string, error) {
	opts := PaperOptions()
	if _, err := compiler.Compile("0", opts); err != nil {
		return "", err
	}
	var front, back time.Duration
	for _, p := range progs {
		for i := 0; i < repeats; i++ {
			c, err := compiler.Compile(p.Source, opts)
			if err != nil {
				return "", fmt.Errorf("%s: %w", p.Name, err)
			}
			front += c.Phases.Front
			back += c.Phases.Back
		}
	}
	total := front + back
	var b strings.Builder
	b.WriteString("Compile-time profile (§4)\n")
	fmt.Fprintf(&b, "front end (read/expand/convert): %v (%.1f%%)\n",
		front, 100*float64(front)/float64(total))
	fmt.Fprintf(&b, "register allocation + codegen:   %v (%.1f%%)\n",
		back, 100*float64(back)/float64(total))
	b.WriteString("(paper: register allocation ≈ 7% of compile time; our back end includes instruction emission)\n")
	return b.String(), nil
}
