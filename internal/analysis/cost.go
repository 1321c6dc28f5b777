package analysis

import "repro/internal/vm"

// Static cost estimation. costScan walks the extent once in address
// order and mirrors the machine's accounting exactly (machine.go):
// one dispatch cycle per instruction, the memory penalty per slot
// access, prim/closure slot operands charged a memory penalty plus a
// full load-use stall, and register load-use stalls modeled with the
// machine's readyAt rule — a slot load makes its register usable
// LoadLatency cycles later, and a read before that point stalls to it.
//
// Control-flow joins (jump targets) and calls conservatively clear the
// pending-load state, so the estimate is exact for straight-line code
// (asserted by the differential fuzz test) and a per-activation
// approximation otherwise. Charges are attributed to the save, restore
// and shuffle overhead categories: an instruction's own cost goes to
// its category, a stall to the category of the load that caused it.

// charge categories
const (
	catNone = iota
	catSave
	catRestore
	catShuffle
)

func (pa *procAnalysis) costScan() {
	code := pa.p.Code
	cm := pa.cm
	c := pa.cost

	// Control-flow join points, where pending-load state is discarded.
	joins := map[int]bool{}
	for pc := pa.start; pc < pa.end; pc++ {
		if j := pa.g.Effects(pc).Jump; j >= 0 {
			joins[j] = true
		}
	}

	readyAt := make([]int64, pa.nRegs)
	readyCat := make([]int, pa.nRegs)
	var cycles, stalls int64
	var byCat [4]int64

	clearReady := func() {
		for r := range readyAt {
			readyAt[r] = 0
		}
	}
	stall := func(r int) {
		if r < 0 || r >= pa.nRegs {
			return
		}
		if d := readyAt[r] - cycles; d > 0 {
			cycles += d
			stalls += d
			byCat[readyCat[r]] += d
		}
	}

	for pc := pa.start; pc < pa.end; pc++ {
		if joins[pc] {
			clearReady()
		}
		in := code[pc]

		// The instruction's own (non-stall) charges land in its
		// overhead category.
		cat := catNone
		switch {
		case in.Op == vm.OpStoreSlot && in.Kind == vm.KindSave:
			cat = catSave
		case in.Op == vm.OpLoadSlot && in.Kind == vm.KindRestore:
			cat = catRestore
		case pa.shufflePC[pc]:
			cat = catShuffle
		}
		charge := func(n int64) {
			cycles += n
			byCat[cat] += n
		}
		charge(1) // dispatch

		switch in.Op {
		case vm.OpHalt:
			stall(vm.RegRV)
		case vm.OpEntry, vm.OpJump, vm.OpLoadConst, vm.OpLoadGlobal:
			// LoadConst/LoadGlobal write via writeReg: register ready.
			if in.Op == vm.OpLoadConst || in.Op == vm.OpLoadGlobal {
				readyAt[in.A] = 0
			}
		case vm.OpMove:
			stall(in.B)
			readyAt[in.A] = 0
		case vm.OpStoreGlobal:
			stall(in.A)
		case vm.OpLoadSlot:
			charge(cm.MemPenalty)
			c.SlotReads[in.Kind]++
			readyAt[in.A] = cycles + cm.LoadLatency
			readyCat[in.A] = cat
		case vm.OpStoreSlot:
			stall(in.A)
			charge(cm.MemPenalty)
			c.SlotWrites[in.Kind]++
		case vm.OpStoreOut:
			stall(in.A)
			charge(cm.MemPenalty)
			c.SlotWrites[in.Kind]++
		case vm.OpPrim, vm.OpClosure:
			for _, r := range in.Regs {
				if vm.IsSlotOperand(r) {
					// A slot operand is a load consumed immediately:
					// memory penalty plus a full load-use stall
					// (Machine.readOperand).
					charge(cm.MemPenalty)
					cycles += cm.LoadLatency
					stalls += cm.LoadLatency
					byCat[cat] += cm.LoadLatency
					c.SlotReads[vm.KindTemp]++
				} else {
					stall(r)
				}
			}
			readyAt[in.A] = 0
		case vm.OpClosurePatch:
			stall(in.A)
			stall(in.C)
		case vm.OpFreeRef:
			stall(vm.RegCP)
			readyAt[in.A] = 0
		case vm.OpBranchFalse:
			// Misprediction penalties are data-dependent and not
			// modeled statically (the default model charges zero).
			stall(in.A)
		case vm.OpCall, vm.OpCallCC:
			stall(vm.RegCP)
			// Callee execution elapses arbitrarily many cycles; any
			// pending load completes before control returns.
			clearReady()
		case vm.OpTailCall:
			stall(vm.RegCP)
		case vm.OpReturn:
			stall(vm.RegRet)
		}
	}

	c.Cycles = cycles
	c.StallCycles = stalls
	c.SaveCycles = byCat[catSave]
	c.RestoreCycles = byCat[catRestore]
	c.ShuffleCycles = byCat[catShuffle]
}
