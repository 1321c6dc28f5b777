package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/vm"
)

// Graph is the control-flow graph of one procedure extent [Start, End)
// of a program's code: per-instruction decoded effects, successor and
// predecessor edges, and basic blocks. Construction fails (with a
// reason) when the extent cannot be walked — an unknown opcode, a jump
// leaving the extent, or control falling off the end; the verifier
// reports those structurally, and dataflow over them would be
// meaningless.
type Graph struct {
	start, end int
	eff        []vm.Effects
	blocks     []Block
	blockOf    []int32 // pc-start -> block index
}

// NewGraph builds the CFG for the instructions [start, end) of p.
func NewGraph(p *vm.Program, start, end int) (*Graph, error) {
	if start < 0 || end > len(p.Code) || start >= end {
		return nil, fmt.Errorf("dataflow: extent [%d,%d) outside code of %d", start, end, len(p.Code))
	}
	eff := make([]vm.Effects, end-start)
	for pc := start; pc < end; pc++ {
		e, ok := p.Code[pc].InstrEffects(p.Config)
		if !ok {
			return nil, fmt.Errorf("dataflow: unknown opcode %d at pc %d", p.Code[pc].Op, pc)
		}
		if e.Jump >= 0 && (e.Jump < start || e.Jump >= end) {
			return nil, fmt.Errorf("dataflow: jump target %d at pc %d outside extent [%d,%d)", e.Jump, pc, start, end)
		}
		if e.FallsThrough && pc+1 >= end {
			return nil, fmt.Errorf("dataflow: control falls off the extent end at pc %d", pc)
		}
		eff[pc-start] = e
	}
	return newGraph(start, end, eff), nil
}

// GraphFromEffects wraps an effects slice the caller already decoded
// and bounds-checked (the verifier builds one during its structural
// prescan). eff[i] describes the instruction at start+i.
func GraphFromEffects(start, end int, eff []vm.Effects) *Graph {
	return newGraph(start, end, eff)
}

func newGraph(start, end int, eff []vm.Effects) *Graph {
	g := &Graph{start: start, end: end, eff: eff}
	g.buildBlocks()
	return g
}

// Start and End delimit the extent.
func (g *Graph) Start() int { return g.start }
func (g *Graph) End() int   { return g.end }

// Effects returns the cached def/use effects of the instruction at pc.
func (g *Graph) Effects(pc int) vm.Effects { return g.eff[pc-g.start] }

// Succs lists pc's intra-procedure successors into buf. An instruction
// has at most two: the fall-through and the branch/jump target.
func (g *Graph) Succs(pc int, buf []int) []int {
	e := g.eff[pc-g.start]
	buf = buf[:0]
	if e.FallsThrough {
		buf = append(buf, pc+1)
	}
	if e.Jump >= 0 {
		buf = append(buf, e.Jump)
	}
	return buf
}

// Block is one basic block: the instruction range [Start, End), entered
// only at Start and left only at End-1. Succs and Preds are indices
// into Graph.Blocks.
type Block struct {
	Start, End int
	Succs      []int
	Preds      []int
}

// Blocks returns the basic blocks in address order (which, for the
// forward-DAG bodies the emitter produces, is also a reverse postorder:
// every edge except loop back-edges goes from a lower to a higher
// address).
func (g *Graph) Blocks() []Block { return g.blocks }

// BlockOf returns the index of the block containing pc.
func (g *Graph) BlockOf(pc int) int { return int(g.blockOf[pc-g.start]) }

// buildBlocks computes leaders (the extent start, jump/branch targets,
// and instructions after a branch or a non-falling-through instruction)
// and wires block-level edges.
func (g *Graph) buildBlocks() {
	n := g.end - g.start
	leader := make([]bool, n)
	leader[0] = true
	for pc := g.start; pc < g.end; pc++ {
		e := g.eff[pc-g.start]
		if e.Jump >= 0 {
			leader[e.Jump-g.start] = true
			if pc+1 < g.end {
				leader[pc+1-g.start] = true
			}
		}
		if !e.FallsThrough && pc+1 < g.end {
			leader[pc+1-g.start] = true
		}
	}
	g.blockOf = make([]int32, n)
	for i := 0; i < n; i++ {
		if leader[i] {
			g.blocks = append(g.blocks, Block{Start: g.start + i})
		}
		g.blockOf[i] = int32(len(g.blocks) - 1)
	}
	for bi := range g.blocks {
		if bi+1 < len(g.blocks) {
			g.blocks[bi].End = g.blocks[bi+1].Start
		} else {
			g.blocks[bi].End = g.end
		}
	}
	var buf [2]int
	for bi := range g.blocks {
		last := g.blocks[bi].End - 1
		for _, succ := range g.Succs(last, buf[:]) {
			sb := g.BlockOf(succ)
			g.blocks[bi].Succs = append(g.blocks[bi].Succs, sb)
			g.blocks[sb].Preds = append(g.blocks[sb].Preds, bi)
		}
	}
}

// Extent is one procedure's contiguous code region [Start, End) plus
// its metadata. Procedures are emitted contiguously, so a body runs
// from its entry to the next entry (or the end of the code). The
// verifier, the lint and the call graph all walk these extents.
type Extent struct {
	Info  vm.ProcInfo
	Index int // index into Program.Procs
	Start int
	End   int
	// Shuffles indexes the program's shuffle records whose StartPC lies
	// in the extent, in record order.
	Shuffles []int
}

// Extents computes every procedure's code extent in address order,
// skipping procedures whose entry lies outside the code (the verifier
// reports those as violations).
func Extents(p *vm.Program) []Extent {
	out := make([]Extent, 0, len(p.Procs))
	for i, info := range p.Procs {
		if info.Entry <= 0 || info.Entry >= len(p.Code) {
			continue
		}
		out = append(out, Extent{Info: info, Index: i, Start: info.Entry})
	}
	// Insertion sort by entry address: the emitter already orders
	// procedures, so this is one linear pass in practice.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for i := range out {
		if i+1 < len(out) {
			out[i].End = out[i+1].Start
		} else {
			out[i].End = len(p.Code)
		}
	}
	// Bucket the shuffle records by the extent their start lies in; the
	// extents are sorted and contiguous.
	for i, rec := range p.Shuffles {
		j := sort.Search(len(out), func(j int) bool { return out[j].End > rec.StartPC })
		if j < len(out) && rec.StartPC >= out[j].Start {
			out[j].Shuffles = append(out[j].Shuffles, i)
		}
	}
	return out
}
