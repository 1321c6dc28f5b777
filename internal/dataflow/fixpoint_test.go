package dataflow_test

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/regset"
	"repro/internal/vm"
)

// Hand-built effects for engine tests: tiny CFGs with known answers.

func fall() vm.Effects             { return vm.Effects{Jump: -1, FallsThrough: true} }
func branch(target int) vm.Effects { return vm.Effects{Jump: target, FallsThrough: true} }
func jump(target int) vm.Effects   { return vm.Effects{Jump: target} }
func exit() vm.Effects             { return vm.Effects{Jump: -1, IsExit: true} }
func def(r int) vm.Effects         { e := fall(); e.Defs = e.Defs.Add(r); return e }
func use(r int) vm.Effects         { e := fall(); e.Uses = e.Uses.Add(r); return e }

// maybeDefined is a forward may-analysis: the set of registers some
// path has defined.
type maybeDefined struct{ g *dataflow.Graph }

func (md maybeDefined) Entry() regset.Set { return 0 }
func (md maybeDefined) Transfer(pc int, s regset.Set) regset.Set {
	return s.Union(md.g.Effects(pc).Defs)
}
func (md maybeDefined) Clone(s regset.Set) regset.Set { return s }
func (md maybeDefined) Join(dst, src regset.Set) (regset.Set, bool) {
	nv := dst.Union(src)
	return nv, nv != dst
}

// forwardIns replays a solved forward problem, returning the in-state of
// every pc and which pcs the replay visited.
func forwardIns(g *dataflow.Graph, md maybeDefined, sol *dataflow.Forward[regset.Set]) ([]regset.Set, []bool) {
	in := make([]regset.Set, g.End()-g.Start())
	visited := make([]bool, len(in))
	last := -1
	sol.Replay(func(pc int, s regset.Set) regset.Set {
		if pc <= last {
			panic("replay out of address order")
		}
		last = pc
		in[pc], visited[pc] = s, true
		return md.Transfer(pc, s)
	})
	return in, visited
}

func TestSolveForwardDiamond(t *testing.T) {
	// 0: branch to 3 | 1: def r1 | 2: jump 4 | 3: def r2 | 4: exit
	eff := []vm.Effects{branch(3), def(1), jump(4), def(2), exit()}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	sol := dataflow.SolveForward[regset.Set](g, maybeDefined{g}, dataflow.DefaultMaxPasses)
	if !sol.Converged {
		t.Fatalf("diamond did not converge")
	}
	in, visited := forwardIns(g, maybeDefined{g}, sol)
	for pc, v := range visited {
		if !v {
			t.Fatalf("pc %d unreached", pc)
		}
	}
	var none regset.Set
	wantIn := []regset.Set{none, none, none.Add(1), none, none.Add(1).Add(2)}
	for pc, want := range wantIn {
		if in[pc] != want {
			t.Errorf("in[%d] = %v, want %v", pc, in[pc], want)
		}
	}
}

func TestSolveForwardUnreachable(t *testing.T) {
	// 1 is dead: 0 jumps straight to 2.
	eff := []vm.Effects{jump(2), def(1), exit()}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	sol := dataflow.SolveForward[regset.Set](g, maybeDefined{g}, dataflow.DefaultMaxPasses)
	if !sol.Converged {
		t.Fatalf("did not converge")
	}
	_, visited := forwardIns(g, maybeDefined{g}, sol)
	if visited[1] {
		t.Errorf("dead pc 1 replayed")
	}
	if !visited[0] || !visited[2] {
		t.Errorf("live pcs not replayed: %v", visited)
	}
}

// liveRegs is backward may-liveness over registers, mirroring the shape
// internal/analysis uses.
type liveRegs struct{ g *dataflow.Graph }

func (lr liveRegs) New() regset.Set                      { return 0 }
func (lr liveRegs) Merge(dst, src regset.Set) regset.Set { return dst.Union(src) }
func (lr liveRegs) Transfer(pc int, out regset.Set) regset.Set {
	e := lr.g.Effects(pc)
	return e.Uses.Union(out.Minus(e.Defs))
}
func (lr liveRegs) Eq(a, b regset.Set) bool { return a == b }

func TestSolveBackwardLoop(t *testing.T) {
	// 0: def r1 | 1: use r1, branch back to 1 | 2: use r2, exit
	useLoop := use(1)
	useLoop.Jump = 1
	useExit := vm.Effects{Jump: -1, IsExit: true}
	useExit.Uses = useExit.Uses.Add(2)
	eff := []vm.Effects{def(1), useLoop, useExit}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	lr := liveRegs{g}
	sol := dataflow.SolveBackward[regset.Set](g, lr, dataflow.DefaultMaxPasses)
	if !sol.Converged {
		t.Fatalf("loop did not converge")
	}
	in := make([]regset.Set, len(eff))
	out := make([]regset.Set, len(eff))
	sol.Replay(func(pc int, o regset.Set) regset.Set {
		out[pc] = o
		in[pc] = lr.Transfer(pc, o)
		return in[pc]
	})
	var none regset.Set
	wantIn := []regset.Set{none.Add(2), none.Add(1).Add(2), none.Add(2)}
	for pc, want := range wantIn {
		if in[pc] != want {
			t.Errorf("in[%d] = %v, want %v", pc, in[pc], want)
		}
	}
	// The loop body has a back-edge, so its out-state includes its own
	// in-state: the union of both successors.
	if want := none.Add(1).Add(2); out[1] != want {
		t.Errorf("out[1] = %v, want %v", out[1], want)
	}
	if out[2] != 0 {
		t.Errorf("out[exit] = %v, want empty", out[2])
	}
}

// counting is a forward problem that counts how often the engine clones
// and joins states.
type counting struct {
	clones, joins *int
}

func (c counting) Entry() int                    { return 0 }
func (c counting) Transfer(pc int, s int) int    { return s }
func (c counting) Clone(s int) int               { *c.clones++; return s }
func (c counting) Join(dst, src int) (int, bool) { *c.joins++; return dst, false }

// TestForwardClonesPerBlock proves the engine's clone and join work is
// O(blocks + edges), not O(instructions): a 10k-instruction straight
// line is one block, and a chain of 1k diamonds is 3k blocks.
func TestForwardClonesPerBlock(t *testing.T) {
	straight := make([]vm.Effects, 10_000)
	for i := range straight {
		straight[i] = fall()
	}
	straight[len(straight)-1] = exit()

	var diamonds []vm.Effects
	for i := 0; i < 1000; i++ {
		at := len(diamonds)
		// at: branch to at+3 | at+1: def | at+2: jump at+4 | at+3: def
		diamonds = append(diamonds, branch(at+3), def(1), jump(at+4), def(2))
	}
	diamonds = append(diamonds, exit())

	for _, tc := range []struct {
		name string
		eff  []vm.Effects
	}{{"straight", straight}, {"diamonds", diamonds}} {
		g := dataflow.GraphFromEffects(0, len(tc.eff), tc.eff)
		edges := 0
		for _, b := range g.Blocks() {
			edges += len(b.Succs)
		}
		var clones, joins int
		c := counting{&clones, &joins}
		sol := dataflow.SolveForward[int](g, c, dataflow.DefaultMaxPasses)
		sol.Replay(func(pc int, s int) int { return s })
		// One pass plus the confirming pass, each cloning every block and
		// cloning or joining along every edge; then one replay clone per
		// block.
		if bound := 3*len(g.Blocks()) + 2*edges; clones+joins > bound {
			t.Errorf("%s: %d clones and %d joins for %d blocks, %d edges, %d instructions; want at most %d",
				tc.name, clones, joins, len(g.Blocks()), edges, len(tc.eff), bound)
		}
		if clones+joins >= len(tc.eff)/2 && tc.name == "straight" {
			t.Errorf("%s: %d clones and joins scale with instructions", tc.name, clones+joins)
		}
	}
}

func TestBlocksOnLoop(t *testing.T) {
	// 0 falls into a two-instruction loop header; the back-edge makes 1
	// a leader, and 3 is a leader as the branch fall-through.
	eff := []vm.Effects{fall(), fall(), branch(1), exit()}
	g := dataflow.GraphFromEffects(0, len(eff), eff)
	blocks := g.Blocks()
	starts := make([]int, len(blocks))
	for i, b := range blocks {
		starts[i] = b.Start
	}
	want := []int{0, 1, 3}
	if len(starts) != len(want) {
		t.Fatalf("block starts %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("block starts %v, want %v", starts, want)
		}
	}
	// The loop block's successors are itself and the exit block.
	b1 := blocks[1]
	if len(b1.Succs) != 2 {
		t.Fatalf("loop block succs %v", b1.Succs)
	}
}
