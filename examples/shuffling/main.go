// Shuffling demonstrates the greedy argument-shuffling algorithm of
// §2.3/§3.1 on the paper's own examples, then compares greedy's
// temporaries over random call-site dependency graphs with the fewest
// any evaluation order needs (core.OptimalSimpleTemps).
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/regset"
	"repro/lsr"
)

func main() {
	fmt.Println("== The paper's swap example: f(y, x) with x in a1, y in a2 ==")
	swap := []core.ShuffleArg{
		{Target: 0, Reads: regset.Of(1)}, // a1 <- y (currently in a2)
		{Target: 1, Reads: regset.Of(0)}, // a2 <- x (currently in a1)
	}
	show(swap)

	fmt.Println("== The paper's no-shuffle example: f(x+y, y+1, y+z) ==")
	noshuffle := []core.ShuffleArg{
		{Target: 0, Reads: regset.Of(0, 1)}, // a1 <- x+y
		{Target: 1, Reads: regset.Of(1)},    // a2 <- y+1
		{Target: 2, Reads: regset.Of(1, 2)}, // a3 <- y+z
	}
	fmt.Println("greedy (evaluates y+1 last, zero temporaries):")
	show(noshuffle)
	fmt.Println("naive left-to-right (needs a temporary):")
	plan := core.NaiveShuffle(noshuffle, regset.Empty)
	printPlan(noshuffle, plan)

	fmt.Println("== Greedy vs optimal over 20000 random sparse call sites ==")
	rng := rand.New(rand.NewSource(1995))
	sites, cyclic, matched, extra := 0, 0, 0, 0
	for i := 0; i < 20000; i++ {
		m := 2 + rng.Intn(5)
		args := make([]core.ShuffleArg, m)
		for j := range args {
			args[j].Target = j
			for k := 0; k < rng.Intn(3); k++ {
				args[j].Reads = args[j].Reads.Add(rng.Intn(m))
			}
		}
		g := core.GreedyShuffle(args, regset.Empty)
		opt := core.OptimalSimpleTemps(args)
		sites++
		if g.HadCycle {
			cyclic++
		}
		if g.SimpleTemps == opt {
			matched++
		} else {
			extra += g.SimpleTemps - opt
		}
	}
	fmt.Printf("call sites: %d, cyclic: %d (%.1f%%; paper: 7%%)\n",
		sites, cyclic, 100*float64(cyclic)/float64(sites))
	fmt.Printf("greedy optimal at %d (%.2f%%; paper: all but 6 of 20245), total excess temps %d\n\n",
		matched, 100*float64(matched)/float64(sites), extra)

	fmt.Println("== And in compiled code: the swap loop runs with one temporary ==")
	opts := lsr.DefaultOptions()
	opts.Verify = true // the validator checks the emitted shuffle too
	prog, err := lsr.Compile(`
(define (spin x y n)
  (if (zero? n) (list x y) (spin y x (- n 1))))
(spin 'a 'b 101)`, opts)
	if err != nil {
		panic(err)
	}
	res, err := prog.Run(nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("(spin 'a 'b 101) = %s after 101 argument swaps\n", res.Value)
}

func show(args []core.ShuffleArg) {
	plan := core.GreedyShuffle(args, regset.Empty)
	printPlan(args, plan)
}

func printPlan(args []core.ShuffleArg, plan core.Plan) {
	for _, st := range plan.Steps {
		target := args[st.Arg].Target
		switch st.Dest {
		case core.DestTarget:
			fmt.Printf("  eval arg%d -> a%d\n", st.Arg+1, target+1)
		case core.DestRegTemp:
			fmt.Printf("  eval arg%d -> temp register r%d\n", st.Arg+1, st.TempReg)
		case core.DestStackTemp:
			fmt.Printf("  eval arg%d -> stack temporary\n", st.Arg+1)
		}
	}
	for _, argIdx := range plan.Moves {
		fmt.Printf("  move temp -> a%d\n", args[argIdx].Target+1)
	}
	fmt.Printf("  (cycle: %v, simple temps: %d)\n\n", plan.HadCycle, plan.SimpleTemps)
}
