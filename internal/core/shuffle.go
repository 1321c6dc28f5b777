package core

import (
	"math/bits"

	"repro/internal/regset"
)

// ShuffleArg describes one outgoing argument of a call for the purposes
// of argument-register shuffling (§2.3). The operator itself participates
// as an extra argument whose target is the closure-pointer register.
type ShuffleArg struct {
	// Target is the register the argument must end up in.
	Target int
	// Reads is the set of argument registers whose *current* values the
	// argument expression reads. Reads of the argument's own target do
	// not constrain the order (the write happens after the reads).
	Reads regset.Set
	// Complex marks arguments containing (non-tail) calls; per §3.1 all
	// but one of these are evaluated into stack temporaries up front,
	// "since evaluation of complex arguments may require a call, causing
	// the previous arguments to be saved on the stack anyway".
	Complex bool
}

// DestKind says where a shuffle step delivers its value.
type DestKind int

const (
	// DestTarget evaluates the argument directly into its target register.
	DestTarget DestKind = iota
	// DestRegTemp evaluates into a free register temporary; a final move
	// transfers it to the target.
	DestRegTemp
	// DestStackTemp evaluates into a stack temporary; a final move
	// transfers it to the target.
	DestStackTemp
)

// Step is one evaluation in a shuffle plan.
type Step struct {
	Arg  int      // index into the args slice
	Dest DestKind // where the value goes
	// TempReg is the temporary register when Dest == DestRegTemp.
	TempReg int
}

// Plan is a complete argument-evaluation schedule: execute Steps in
// order, then perform the temp-to-target Moves (each Moves entry is an
// arg index whose temporary must be copied into its target register).
type Plan struct {
	Steps []Step
	Moves []int
	// HadCycle reports whether the simple-argument dependency graph
	// contained a cycle (§3.1 reports 7% of call sites do).
	HadCycle bool
	// SimpleTemps counts temporaries introduced for simple arguments —
	// the quantity the greedy heuristic tries to minimize and the one
	// compared against OptimalSimpleTemps.
	SimpleTemps int
	// ComplexTemps counts temporaries used for complex arguments.
	ComplexTemps int
}

// Temps returns the total number of temporaries in the plan.
func (p Plan) Temps() int { return p.SimpleTemps + p.ComplexTemps }

// dependencies builds a call site's dependency graph over its simple
// arguments (§3.1 step 1): simple[k] is the k-th simple argument's index
// in args, and bit j of deps[k] is set when it reads the target of
// simple argument j. Reading its own target does not constrain an
// argument's order (the write happens after the reads). Targets are
// distinct registers, so there are at most 64 and a mask holds them.
func dependencies(args []ShuffleArg) (simple []int, deps []uint64) {
	simple = make([]int, 0, len(args))
	for i, a := range args {
		if !a.Complex {
			simple = append(simple, i)
		}
	}
	deps = make([]uint64, len(simple))
	for k, i := range simple {
		for j, t := range simple {
			if j != k && args[i].Reads.Has(args[t].Target) {
				deps[k] |= 1 << j
			}
		}
	}
	return simple, deps
}

// acyclic reports whether the dependency graph restricted to the
// arguments in set has no cycle, by §3.1 step 4's peel: an argument none
// of whose dependencies remain can go, and a cycle is what cannot.
func acyclic(deps []uint64, set uint64) bool {
	for set != 0 {
		before := set
		for r := set; r != 0; r &= r - 1 {
			if k := bits.TrailingZeros64(r); deps[k]&set == 0 {
				set &^= 1 << k
			}
		}
		if set == before {
			return false
		}
	}
	return true
}

// toTemp is the step evaluating argument i into a temporary: the lowest
// register left in *free, which it takes, else a stack temporary.
func toTemp(i int, free *regset.Set) Step {
	if free.IsEmpty() {
		return Step{Arg: i, Dest: DestStackTemp}
	}
	r := bits.TrailingZeros64(uint64(*free))
	*free = free.Remove(r)
	return Step{Arg: i, Dest: DestRegTemp, TempReg: r}
}

// GreedyShuffle computes an evaluation order per the paper's greedy
// algorithm (§3.1 steps 1–5):
//
//  1. build the dependency graph over the argument registers;
//  2. partition into simple and complex arguments;
//  3. evaluate all but one complex argument into stack temporaries,
//     choosing as the directly-evaluated complex argument one on which no
//     simple argument depends (if none exists, every complex argument
//     goes to a temporary);
//  4. repeatedly move an argument with no dependencies on the remaining
//     argument registers onto a "to be done last" stack;
//  5. on a cycle, greedily evaluate the argument causing the most
//     dependencies into a temporary (a free argument register when one
//     is available, otherwise the stack) and continue with step 4.
//
// Ties go to the argument written first.
func GreedyShuffle(args []ShuffleArg, freeRegs regset.Set) Plan {
	plan := Plan{Steps: make([]Step, 0, len(args))}
	simple, deps := dependencies(args)

	// Step 3: the first complex argument whose target no simple
	// argument reads is evaluated directly into its register, after the
	// others have gone to temporaries.
	var simpleReads regset.Set
	for _, i := range simple {
		simpleReads = simpleReads.Union(args[i].Reads)
	}
	chosen := -1
	for i, a := range args {
		if !a.Complex {
			continue
		}
		if chosen < 0 && !simpleReads.Has(a.Target) {
			chosen = i
			continue
		}
		plan.Steps = append(plan.Steps, Step{Arg: i, Dest: DestStackTemp})
		plan.Moves = append(plan.Moves, i)
		plan.ComplexTemps++
	}
	if chosen >= 0 {
		plan.Steps = append(plan.Steps, Step{Arg: chosen, Dest: DestTarget})
	}

	// Steps 4 and 5 over the simple arguments.
	remaining := uint64(1)<<len(simple) - 1
	doneLast := make([]int, 0, len(simple)) // stack; popped LIFO after victims
	free := freeRegs
	for remaining != 0 {
		ready := -1
		for r := remaining; r != 0; r &= r - 1 {
			if k := bits.TrailingZeros64(r); deps[k]&remaining == 0 {
				ready = k
				break
			}
		}
		if ready >= 0 {
			doneLast = append(doneLast, simple[ready])
			remaining &^= 1 << ready
			continue
		}
		// Cycle: every remaining argument reads a remaining target. The
		// victim is the one the most remaining arguments read.
		plan.HadCycle = true
		victim, best := 0, -1
		for r := remaining; r != 0; r &= r - 1 {
			v := bits.TrailingZeros64(r)
			readers := 0
			for q := remaining; q != 0; q &= q - 1 {
				readers += int(deps[bits.TrailingZeros64(q)] >> v & 1)
			}
			if readers > best {
				victim, best = v, readers
			}
		}
		remaining &^= 1 << victim
		plan.Steps = append(plan.Steps, toTemp(simple[victim], &free))
		plan.Moves = append(plan.Moves, simple[victim])
		plan.SimpleTemps++
	}
	for k := len(doneLast) - 1; k >= 0; k-- {
		plan.Steps = append(plan.Steps, Step{Arg: doneLast[k], Dest: DestTarget})
	}
	return plan
}

// NaiveShuffle evaluates the simple arguments in their written order —
// the strategy the compiler used "before we installed this algorithm"
// (§4) — placing an argument in a temporary whenever a later simple
// argument still reads its target register. Complex arguments all go to
// stack temporaries up front (no register value may span their internal
// calls, so no target register or register temporary can be written
// until every call-containing argument has finished).
func NaiveShuffle(args []ShuffleArg, freeRegs regset.Set) Plan {
	plan := Plan{Steps: make([]Step, 0, len(args))}
	for i, a := range args {
		if a.Complex {
			plan.Steps = append(plan.Steps, Step{Arg: i, Dest: DestStackTemp})
			plan.Moves = append(plan.Moves, i)
			plan.ComplexTemps++
		}
	}
	simple, deps := dependencies(args)
	free := freeRegs
	for k, i := range simple {
		var later uint64
		for _, d := range deps[k+1:] {
			later |= d
		}
		if later>>k&1 == 0 {
			plan.Steps = append(plan.Steps, Step{Arg: i, Dest: DestTarget})
			continue
		}
		plan.Steps = append(plan.Steps, toTemp(i, &free))
		plan.Moves = append(plan.Moves, i)
		plan.SimpleTemps++
	}
	plan.HadCycle = !acyclic(deps, uint64(1)<<len(deps)-1)
	return plan
}

// OptimalSimpleTemps returns the fewest simple-argument temporaries any
// evaluation order needs, for comparing the greedy heuristic against the
// optimum (§3.1: greedy is optimal at all but 6 of 20,245 compiler call
// sites). An order needs a temporary for each argument whose target a
// later argument reads, so the fewest is the size of the smallest set of
// arguments whose removal leaves the dependency graph acyclic (a minimum
// feedback vertex set; a rotation is one cycle and costs one). Finding
// it is NP-complete (§3.1): sets are tried smallest first, so the cost
// grows with the optimum, not with the number of orders. It is a
// measurement only; no code generator calls it.
func OptimalSimpleTemps(args []ShuffleArg) int {
	_, deps := dependencies(args)
	all := uint64(1)<<len(deps) - 1
	for size := 0; ; size++ {
		if breaksCycles(deps, all, 0, size) {
			return size
		}
	}
}

// breaksCycles reports whether removing size arguments of set, none
// below position from, leaves set acyclic.
func breaksCycles(deps []uint64, set uint64, from, size int) bool {
	if size == 0 {
		return acyclic(deps, set)
	}
	for r := set >> from << from; r != 0; r &= r - 1 {
		k := bits.TrailingZeros64(r)
		if breaksCycles(deps, set&^(1<<k), k+1, size-1) {
			return true
		}
	}
	return false
}

// ValidOrder checks a plan against the shuffle correctness contract: no
// argument may read a target register after that register has been
// overwritten. It returns false if the plan would read clobbered data.
// (Complex arguments' internal calls save and restore live registers, so
// only direct target writes are modeled.)
func ValidOrder(args []ShuffleArg, plan Plan) bool {
	written := regset.Empty
	planned := map[int]bool{}
	for _, st := range plan.Steps {
		if planned[st.Arg] {
			return false // evaluated twice
		}
		planned[st.Arg] = true
		a := args[st.Arg]
		if !a.Reads.Intersect(written).Remove(a.Target).IsEmpty() {
			return false
		}
		if st.Dest == DestTarget {
			written = written.Add(a.Target)
		}
		if st.Dest == DestRegTemp {
			written = written.Add(st.TempReg)
		}
	}
	for i := range args {
		if !planned[i] {
			return false // argument never evaluated
		}
	}
	return true
}
