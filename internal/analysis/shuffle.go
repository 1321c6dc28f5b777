package analysis

import (
	"fmt"

	"repro/internal/vm"
)

// Shuffle optimality. Each recorded call shuffle (vm.ShuffleRecord)
// names a parallel assignment: target registers receiving values from
// source registers or frame slots. The minimal realization of such an
// assignment is classical (cf. Buchwald et al., "Optimal Shuffle Code
// with Permutation Instructions"): decompose the register-source
// transfer graph — a functional graph target→source — into chains and
// cycles; every non-trivial assignment costs one move, and every
// transfer cycle costs one extra move through one temporary. Sources
// already in a frame slot cost exactly one load and can never lie on a
// cycle (they occupy no target register).
//
// The checker replays the emitted window [StartPC, CallPC), attributes
// each data-movement instruction to the assignment it serves, and flags
// windows whose attributed move count or temporary count exceeds the
// minimum. Windows containing computation (complex arguments evaluate
// prims, closures or nested calls inside the window) are not
// attributable instruction-by-instruction and are skipped — the
// per-procedure report counts how many windows were checked, so skipped
// windows cannot masquerade as verified-minimal.

// instruction classes inside a shuffle window
const (
	clGenerate   = iota // LoadConst / LoadGlobal / FreeRef: creates a value
	clSaveOrRest        // save store or restore load: save/restore traffic
	clArgDeliver        // StoreOut / KindArg store: stack-argument delivery
	clMove              // Move: register copy
	clLoad              // LoadSlot KindTemp/KindVar: data load
	clTempStore         // StoreSlot KindTemp: staging store
)

// value tags: whether an instruction moves a pre-window value (a
// shuffle source) or one generated inside the window (a constant,
// global or free-variable argument, outside the recorded assignment)
const (
	tagSource = iota
	tagGenerated
)

type winOp struct {
	pc    int
	class int
	tag   int
	// src is the index (into the window op list) of the op that
	// produced the value this op consumes, -1 when the value predates
	// the window.
	src int
	// wrReg is the register written (-1 none); rdReg the register read
	// (-1 none).
	wrReg int
	rdReg int
	// excluded marks save/restore traffic, argument delivery and the
	// chains feeding them: not register-shuffle work.
	excluded bool
}

// checkShuffles analyzes every recorded shuffle window inside this
// procedure's extent.
func (pa *procAnalysis) checkShuffles() {
	for _, i := range pa.recs {
		rec := pa.p.Shuffles[i]
		if rec.CallPC < rec.StartPC || rec.CallPC >= pa.end {
			continue
		}
		pa.cost.ShuffleWindows++
		pa.checkShuffle(rec)
	}
}

func (pa *procAnalysis) checkShuffle(rec vm.ShuffleRecord) {
	targets := map[int]vm.ShuffleAssign{}
	for _, a := range rec.Assigns {
		targets[a.Target] = a
	}

	// Pass 1: classify the window and track value provenance.
	var ops []winOp
	regTag := map[int]int{}    // register → tag (absent: pre-window source)
	regWriter := map[int]int{} // register → last writing op index
	slotTag := map[int]int{}   // temp slot → tag of stored value
	slotWriter := map[int]int{}
	tagOf := func(r int) int {
		if t, ok := regTag[r]; ok {
			return t
		}
		return tagSource
	}
	writerOf := func(r int) int {
		if w, ok := regWriter[r]; ok {
			return w
		}
		return -1
	}
	for pc := rec.StartPC; pc < rec.CallPC; pc++ {
		in := pa.p.Code[pc]
		op := winOp{pc: pc, src: -1, wrReg: -1, rdReg: -1}
		switch in.Op {
		case vm.OpLoadConst, vm.OpLoadGlobal, vm.OpFreeRef:
			op.class, op.tag, op.wrReg = clGenerate, tagGenerated, in.A
		case vm.OpMove:
			op.class, op.tag, op.src = clMove, tagOf(in.B), writerOf(in.B)
			op.wrReg, op.rdReg = in.A, in.B
		case vm.OpLoadSlot:
			switch in.Kind {
			case vm.KindRestore:
				// A restore materializes a pre-window register value.
				op.class, op.tag, op.wrReg = clSaveOrRest, tagSource, in.A
			case vm.KindTemp:
				op.class, op.wrReg = clLoad, in.A
				if t, ok := slotTag[in.B]; ok {
					op.tag, op.src = t, slotWriter[in.B]
				}
			case vm.KindVar:
				// A slot-homed variable read: a slot-source assign.
				op.class, op.tag, op.wrReg = clLoad, tagSource, in.A
			default:
				return // unattributable window
			}
		case vm.OpStoreSlot:
			switch in.Kind {
			case vm.KindSave:
				op.class, op.rdReg = clSaveOrRest, in.A
				op.src = writerOf(in.A)
			case vm.KindTemp:
				op.class, op.tag = clTempStore, tagOf(in.A)
				op.rdReg, op.src = in.A, writerOf(in.A)
				slotTag[in.B], slotWriter[in.B] = op.tag, len(ops)
			case vm.KindArg:
				op.class, op.rdReg, op.src = clArgDeliver, in.A, writerOf(in.A)
			default:
				return
			}
		case vm.OpStoreOut:
			op.class, op.rdReg, op.src = clArgDeliver, in.A, writerOf(in.A)
		default:
			return // computation inside the window: not attributable
		}
		if op.wrReg >= 0 {
			regTag[op.wrReg] = op.tag
			regWriter[op.wrReg] = len(ops)
		}
		ops = append(ops, op)
	}

	// Pass 2: exclude non-shuffle chains — everything feeding a stack
	// argument delivery or a save, transitively.
	var exclude func(i int)
	exclude = func(i int) {
		for i >= 0 && !ops[i].excluded {
			ops[i].excluded = true
			i = ops[i].src
		}
	}
	for i := range ops {
		if ops[i].class == clArgDeliver || ops[i].class == clSaveOrRest {
			exclude(ops[i].src)
		}
	}

	// Pass 3: count attributed data movement.
	readLater := func(from, r int) bool {
		for j := from + 1; j < len(ops); j++ {
			if ops[j].rdReg == r {
				return true
			}
			if ops[j].wrReg == r {
				return false
			}
		}
		return false
	}
	moves, temps := 0, 0
	var pcs []int
	for i, op := range ops {
		if op.excluded || op.tag != tagSource {
			continue
		}
		switch op.class {
		case clMove, clLoad:
			if _, isTarget := targets[op.wrReg]; !isTarget {
				// A staging copy into a non-target register: it must
				// feed later window work, or the window is serving
				// something the record does not describe.
				if !readLater(i, op.wrReg) {
					return
				}
				temps++
			}
		case clTempStore:
			temps++
		default:
			continue
		}
		moves++
		pcs = append(pcs, op.pc)
	}
	minMoves, minTemps := minimalShuffle(rec.Assigns)
	pa.cost.ShuffleWindowsChecked++
	pa.cost.ShuffleMoves += moves
	for _, pc := range pcs {
		pa.shufflePC[pc] = true
	}
	if moves > minMoves {
		pa.report(Finding{
			Kind: ExcessShuffleMove, PC: rec.CallPC, Reg: -1, Slot: -1, CallPC: rec.CallPC,
			Excess: moves - minMoves,
			Msg: fmt.Sprintf("shuffle starting at pc %d emits %d move(s) for an assignment solvable in %d — %d excess",
				rec.StartPC, moves, minMoves, moves-minMoves),
			Witness: pa.g.WitnessPath(rec.CallPC),
		})
	}
	if temps > minTemps {
		pa.report(Finding{
			Kind: ExcessShuffleTemp, PC: rec.CallPC, Reg: -1, Slot: -1, CallPC: rec.CallPC,
			Excess: temps - minTemps,
			Msg: fmt.Sprintf("shuffle starting at pc %d uses %d temporarie(s) where the assignment's %d transfer cycle(s) require %d",
				rec.StartPC, temps, cyclesOf(rec.Assigns), minTemps),
			Witness: pa.g.WitnessPath(rec.CallPC),
		})
	}
}

// minimalShuffle computes the minimal instruction and temporary counts
// realizing the parallel assignment: one move per non-trivial assign
// plus one move and one temporary per transfer cycle.
func minimalShuffle(assigns []vm.ShuffleAssign) (minMoves, minTemps int) {
	moves := 0
	for _, a := range assigns {
		if a.SrcIsSlot || a.Src != a.Target {
			moves++
		}
	}
	c := cyclesOf(assigns)
	return moves + c, c
}

// cyclesOf counts the transfer cycles of the assignment's
// register-source functional graph (target → source, edges restricted
// to sources that are themselves targets; trivial self-assignments are
// not cycles).
func cyclesOf(assigns []vm.ShuffleAssign) int {
	srcOf := map[int]int{}
	for _, a := range assigns {
		if !a.SrcIsSlot && a.Src != a.Target {
			srcOf[a.Target] = a.Src
		}
	}
	const (
		unvisited = iota
		inStack
		done
	)
	state := map[int]int{}
	cycles := 0
	for t := range srcOf {
		if state[t] != unvisited {
			continue
		}
		var path []int
		cur := t
		for {
			state[cur] = inStack
			path = append(path, cur)
			nxt, ok := srcOf[cur]
			if !ok || state[nxt] == done {
				break
			}
			if state[nxt] == inStack {
				cycles++
				break
			}
			cur = nxt
		}
		for _, n := range path {
			state[n] = done
		}
	}
	return cycles
}
