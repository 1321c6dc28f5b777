package core

import (
	"math/rand"
	"testing"

	"repro/internal/regset"
)

// swapArgs is the paper's f(y, x) example: y in a2 must reach a1 and x
// in a1 must reach a2 — a two-cycle requiring one temporary.
func swapArgs() []ShuffleArg {
	return []ShuffleArg{
		{Target: 0, Reads: regset.Of(1)}, // a1 ← y (in a2)
		{Target: 1, Reads: regset.Of(0)}, // a2 ← x (in a1)
	}
}

func TestGreedySwap(t *testing.T) {
	args := swapArgs()
	plan := GreedyShuffle(args, regset.Empty)
	if !plan.HadCycle {
		t.Error("swap should be detected as a cycle")
	}
	if plan.SimpleTemps != 1 {
		t.Errorf("swap needs exactly 1 temp, got %d", plan.SimpleTemps)
	}
	if !ValidOrder(args, plan) {
		t.Errorf("invalid plan: %+v", plan)
	}
	// With a free register available, it should be used instead of the stack.
	plan = GreedyShuffle(args, regset.Of(5))
	for _, st := range plan.Steps {
		if st.Dest == DestStackTemp {
			t.Error("free register should be preferred over stack temp")
		}
	}
}

// TestPaperNoShuffleExample is §2.3's f(x+y, y+1, y+z) with x in a1,
// y in a2, z in a3: evaluating y+1 last avoids all temporaries.
func TestPaperNoShuffleExample(t *testing.T) {
	args := []ShuffleArg{
		{Target: 0, Reads: regset.Of(0, 1)}, // a1 ← x+y
		{Target: 1, Reads: regset.Of(1)},    // a2 ← y+1
		{Target: 2, Reads: regset.Of(1, 2)}, // a3 ← y+z
	}
	plan := GreedyShuffle(args, regset.Empty)
	if plan.HadCycle {
		t.Error("no cycle here")
	}
	if plan.SimpleTemps != 0 {
		t.Errorf("greedy should need 0 temps, got %d", plan.SimpleTemps)
	}
	if !ValidOrder(args, plan) {
		t.Errorf("invalid plan: %+v", plan)
	}
	// y+1 must be the last evaluation.
	last := plan.Steps[len(plan.Steps)-1]
	if last.Arg != 1 {
		t.Errorf("y+1 should be evaluated last, got arg %d", last.Arg)
	}
	// A left-to-right ordering requires a temporary.
	naive := NaiveShuffle(args, regset.Empty)
	if naive.SimpleTemps == 0 {
		t.Error("naive left-to-right should need a temp")
	}
	if !ValidOrder(args, naive) {
		t.Errorf("invalid naive plan: %+v", naive)
	}
}

func TestNoDependencies(t *testing.T) {
	args := []ShuffleArg{
		{Target: 0, Reads: regset.Empty},
		{Target: 1, Reads: regset.Empty},
		{Target: 2, Reads: regset.Of(7)},
	}
	for _, plan := range []Plan{
		GreedyShuffle(args, regset.Empty),
		NaiveShuffle(args, regset.Empty),
	} {
		if plan.Temps() != 0 || plan.HadCycle || !ValidOrder(args, plan) {
			t.Errorf("independent args need no temps: %+v", plan)
		}
	}
}

func TestSelfReadIsNotADependency(t *testing.T) {
	// a1 ← a1+1 reads its own target only: no constraint.
	args := []ShuffleArg{{Target: 0, Reads: regset.Of(0)}}
	plan := GreedyShuffle(args, regset.Empty)
	if plan.Temps() != 0 || plan.HadCycle {
		t.Errorf("self-read should not force a temp: %+v", plan)
	}
}

func TestThreeCycle(t *testing.T) {
	// a1←a2, a2←a3, a3←a1: a rotation needs exactly one temporary.
	args := []ShuffleArg{
		{Target: 0, Reads: regset.Of(1)},
		{Target: 1, Reads: regset.Of(2)},
		{Target: 2, Reads: regset.Of(0)},
	}
	plan := GreedyShuffle(args, regset.Empty)
	if !plan.HadCycle || plan.SimpleTemps != 1 {
		t.Errorf("rotation: temps=%d cycle=%v", plan.SimpleTemps, plan.HadCycle)
	}
	if !ValidOrder(args, plan) {
		t.Errorf("invalid plan: %+v", plan)
	}
	if opt := OptimalSimpleTemps(args); opt != 1 {
		t.Errorf("optimal temps = %d, want 1", opt)
	}
}

func TestTwoDisjointCycles(t *testing.T) {
	// (a1 a2) swap and (a3 a4) swap: two temps.
	args := []ShuffleArg{
		{Target: 0, Reads: regset.Of(1)},
		{Target: 1, Reads: regset.Of(0)},
		{Target: 2, Reads: regset.Of(3)},
		{Target: 3, Reads: regset.Of(2)},
	}
	plan := GreedyShuffle(args, regset.Empty)
	if plan.SimpleTemps != 2 {
		t.Errorf("two swaps need 2 temps, got %d", plan.SimpleTemps)
	}
	if !ValidOrder(args, plan) {
		t.Errorf("invalid plan: %+v", plan)
	}
}

func TestGreedyBreaksCycleWithBestVictim(t *testing.T) {
	// a1 participates in two cycles (with a2 and with a3): removing a1
	// breaks both, so greedy should need only one temp.
	args := []ShuffleArg{
		{Target: 0, Reads: regset.Of(1, 2)}, // a1 reads a2, a3
		{Target: 1, Reads: regset.Of(0)},    // a2 reads a1
		{Target: 2, Reads: regset.Of(0)},    // a3 reads a1
	}
	plan := GreedyShuffle(args, regset.Empty)
	if plan.SimpleTemps != 1 {
		t.Errorf("greedy should break both cycles with one temp, got %d", plan.SimpleTemps)
	}
	if !ValidOrder(args, plan) {
		t.Errorf("invalid plan: %+v", plan)
	}
}

func TestComplexArgsGoToTemps(t *testing.T) {
	args := []ShuffleArg{
		{Target: 0, Complex: true},
		{Target: 1, Complex: true},
		{Target: 2, Reads: regset.Of(5)},
	}
	plan := GreedyShuffle(args, regset.Empty)
	if plan.ComplexTemps != 1 {
		t.Errorf("all but one complex arg should use temps, got %d", plan.ComplexTemps)
	}
	if !ValidOrder(args, plan) {
		t.Errorf("invalid plan: %+v", plan)
	}
	// The chosen complex argument is evaluated before any simple one.
	sawTarget := false
	for _, st := range plan.Steps {
		if st.Dest == DestTarget && args[st.Arg].Complex {
			sawTarget = true
		}
		if !args[st.Arg].Complex && !sawTarget {
			t.Fatalf("simple arg evaluated before the direct complex arg: %+v", plan.Steps)
		}
	}
}

func TestComplexChosenAvoidsSimpleDependency(t *testing.T) {
	// The simple arg reads a1, so the complex arg targeting a1 cannot be
	// evaluated directly; the one targeting a2 can.
	args := []ShuffleArg{
		{Target: 0, Complex: true},
		{Target: 1, Complex: true},
		{Target: 2, Reads: regset.Of(0)},
	}
	plan := GreedyShuffle(args, regset.Empty)
	for _, st := range plan.Steps {
		if st.Arg == 0 && st.Dest == DestTarget {
			t.Error("complex arg 0 must not be evaluated directly (simple arg reads its target)")
		}
	}
	if !ValidOrder(args, plan) {
		t.Errorf("invalid plan: %+v", plan)
	}
}

func TestAllComplexTargetsRead(t *testing.T) {
	// Every complex target is read by a simple arg: all complex args
	// must go through temporaries.
	args := []ShuffleArg{
		{Target: 0, Complex: true},
		{Target: 1, Reads: regset.Of(0)},
	}
	plan := GreedyShuffle(args, regset.Empty)
	if plan.ComplexTemps != 1 {
		t.Errorf("complex arg must use a temp, got %d", plan.ComplexTemps)
	}
	if !ValidOrder(args, plan) {
		t.Errorf("invalid plan: %+v", plan)
	}
}

// randomShuffleArgs builds a random shuffle problem over m arguments.
func randomShuffleArgs(r *rand.Rand, m int) []ShuffleArg {
	args := make([]ShuffleArg, m)
	targets := regset.Empty
	for i := range args {
		args[i].Target = i
		targets = targets.Add(i)
	}
	for i := range args {
		args[i].Reads = regset.Set(r.Uint64()) & regset.Set(targets)
	}
	return args
}

// TestGreedyValidOnRandomGraphs: every greedy plan must be executable
// without reading clobbered registers.
func TestGreedyValidOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		m := 1 + r.Intn(6)
		args := randomShuffleArgs(r, m)
		for _, plan := range []Plan{
			GreedyShuffle(args, regset.Empty),
			GreedyShuffle(args, regset.Of(6, 7)),
			NaiveShuffle(args, regset.Empty),
		} {
			if !ValidOrder(args, plan) {
				t.Fatalf("invalid plan for %+v: %+v", args, plan)
			}
		}
	}
}

// sparseShuffleArgs builds a realistically sparse shuffle problem: each
// argument reads at most two registers, like typical call sites, where
// "most dependency graph cycles are simple" (§3.1).
func sparseShuffleArgs(r *rand.Rand, m int) []ShuffleArg {
	args := make([]ShuffleArg, m)
	for j := range args {
		args[j].Target = j
		for k := 0; k < r.Intn(3); k++ {
			args[j].Reads = args[j].Reads.Add(r.Intn(m))
		}
	}
	return args
}

// TestGreedyNearOptimal: §3.1 reports the greedy heuristic is optimal at
// all but 6 of 20,245 compiler call sites, needing at most one extra
// temporary, "mainly because most dependency graph cycles are simple".
// On realistically sparse graphs we demand a near-perfect match rate; on
// adversarially dense graphs a weaker one. Greedy must never beat the
// optimum and never exceed it by more than the cycle count.
func TestGreedyNearOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	check := func(gen func(*rand.Rand, int) []ShuffleArg, minMatch float64, label string) {
		total, matched := 0, 0
		for i := 0; i < 2000; i++ {
			m := 2 + r.Intn(5)
			args := gen(r, m)
			greedy := GreedyShuffle(args, regset.Empty).SimpleTemps
			opt := OptimalSimpleTemps(args)
			if greedy < opt {
				t.Fatalf("%s: greedy %d < optimal %d for %+v", label, greedy, opt, args)
			}
			if greedy > opt+2 {
				t.Fatalf("%s: greedy %d far from optimal %d for %+v", label, greedy, opt, args)
			}
			total++
			if greedy == opt {
				matched++
			}
		}
		if ratio := float64(matched) / float64(total); ratio < minMatch {
			t.Errorf("%s: greedy matched optimal on only %.1f%% of graphs (want ≥ %.0f%%)",
				label, ratio*100, minMatch*100)
		}
	}
	check(sparseShuffleArgs, 0.97, "sparse")
	check(randomShuffleArgs, 0.80, "dense")
}

// TestOptimalZeroWhenAcyclic: an acyclic dependency graph always admits
// a zero-temp order, and greedy must find one.
func TestOptimalZeroWhenAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		m := 2 + r.Intn(5)
		args := randomShuffleArgs(r, m)
		if hasCycle(args) {
			continue
		}
		if opt := OptimalSimpleTemps(args); opt != 0 {
			t.Fatalf("acyclic graph needs %d temps: %+v", opt, args)
		}
		if g := GreedyShuffle(args, regset.Empty); g.SimpleTemps != 0 || g.HadCycle {
			t.Fatalf("greedy used %d temps on acyclic graph: %+v", g.SimpleTemps, args)
		}
	}
}

func TestCycleDetectionConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 3000; i++ {
		m := 2 + r.Intn(5)
		args := randomShuffleArgs(r, m)
		plan := GreedyShuffle(args, regset.Empty)
		if plan.HadCycle != hasCycle(args) {
			t.Fatalf("cycle flag mismatch for %+v", args)
		}
		// No cycle ⟺ zero simple temps under greedy.
		if !plan.HadCycle && plan.SimpleTemps != 0 {
			t.Fatalf("no cycle but %d temps", plan.SimpleTemps)
		}
		if plan.HadCycle && plan.SimpleTemps == 0 {
			t.Fatalf("cycle but no temps")
		}
	}
}

// hasCycle reports whether the simple arguments' dependency graph has a
// cycle.
func hasCycle(args []ShuffleArg) bool {
	_, deps := dependencies(args)
	return !acyclic(deps, uint64(1)<<len(deps)-1)
}

// orderTemps is OptimalSimpleTemps' oracle: the fewest temporaries over
// every evaluation order of the simple arguments, found by trying the
// orders. Placing an argument costs a temporary when an argument not yet
// placed reads its target; an order already as costly as the best one
// found is abandoned.
func orderTemps(args []ShuffleArg) int {
	var order []int
	for i, a := range args {
		if !a.Complex {
			order = append(order, i)
		}
	}
	best := len(order)
	var try func(k, temps int)
	try = func(k, temps int) {
		if temps >= best {
			return
		}
		if k == len(order) {
			best = temps
			return
		}
		for p := k; p < len(order); p++ {
			order[k], order[p] = order[p], order[k]
			cost := 0
			for _, j := range order[k+1:] {
				if args[j].Reads.Has(args[order[k]].Target) {
					cost = 1
					break
				}
			}
			try(k+1, temps+cost)
			order[k], order[p] = order[p], order[k]
		}
	}
	try(0, 0)
	return best
}

// TestOptimalMatchesOrders: the fewest temporaries is the minimum
// feedback vertex set of the dependency graph, so OptimalSimpleTemps
// must equal the search over every order, on sparse and dense graphs of
// 1–8 arguments, some of them complex (which neither counts).
func TestOptimalMatchesOrders(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 4000; i++ {
		m := 1 + r.Intn(8)
		var args []ShuffleArg
		if i%2 == 0 {
			args = sparseShuffleArgs(r, m)
		} else {
			args = randomShuffleArgs(r, m)
		}
		if i%4 < 2 {
			args[r.Intn(m)].Complex = true
		}
		if got, want := OptimalSimpleTemps(args), orderTemps(args); got != want {
			t.Fatalf("OptimalSimpleTemps = %d, orders need %d: %+v", got, want, args)
		}
	}
}

func TestEmptyArgs(t *testing.T) {
	plan := GreedyShuffle(nil, regset.Empty)
	if len(plan.Steps) != 0 || plan.Temps() != 0 {
		t.Errorf("empty call should produce an empty plan: %+v", plan)
	}
}
