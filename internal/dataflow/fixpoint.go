package dataflow

// The generic fixpoint engines. Both keep one state per basic block,
// not per instruction, and apply transfers in place across a block, so
// a solve costs O(instructions) transfers plus O(blocks + edges) clones
// and joins, and holds O(blocks) states. Blocks are visited in address
// order (forward) or reverse address order (backward) until no block
// state changes: procedure bodies are forward DAGs emitted in
// topological order, so one pass normally converges, and the schedule
// matches the per-instruction loops internal/verify and
// internal/analysis first used — which is what keeps their findings
// reproducible bit-for-bit. The pass cap only trips on malformed code
// (e.g. an irreducible backward-jump tangle), which the caller then
// reports as unverifiable/unanalyzable.
//
// A caller reads a solution through one Replay, which re-runs each
// block from its fixed entry state and shows the caller every
// instruction's state in turn; there is no random access to the state
// at an arbitrary pc.

// DefaultMaxPasses bounds a fixpoint run. The emitter never needs more
// than one or two passes; the cap guards hand-built hostile inputs.
const DefaultMaxPasses = 64

// ForwardProblem is a forward dataflow problem: abstract states flow
// from the extent entry along control edges. S is the per-program-point
// state (a struct, a slice, or any value the methods agree on).
type ForwardProblem[S any] interface {
	// Entry is the abstract state before the first instruction.
	Entry() S
	// Transfer applies the instruction at pc to s — which the engine
	// owns (a clone) — and returns the state after it. It may mutate s.
	Transfer(pc int, s S) S
	// Clone returns an independent copy of s.
	Clone(s S) S
	// Join merges src into dst and reports whether dst changed. It must
	// not mutate src, and must be idempotent, commutative and monotone
	// so the fixpoint is schedule-independent.
	Join(dst, src S) (S, bool)
}

// Forward is a solved forward problem: the fixed in-state of every
// reachable basic block.
type Forward[S any] struct {
	g       *Graph
	p       ForwardProblem[S]
	in      []S // per block
	reached []bool
	// Converged reports whether the fixpoint was reached within the
	// pass cap.
	Converged bool
}

// SolveForward computes the forward fixpoint over g in at most
// maxPasses sweeps.
func SolveForward[S any](g *Graph, p ForwardProblem[S], maxPasses int) *Forward[S] {
	blocks := g.blocks
	f := &Forward[S]{g: g, p: p, in: make([]S, len(blocks)), reached: make([]bool, len(blocks))}
	f.in[0] = p.Entry()
	f.reached[0] = true
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for bi, b := range blocks {
			if !f.reached[bi] {
				continue
			}
			s := p.Clone(f.in[bi])
			for pc := b.Start; pc < b.End; pc++ {
				s = p.Transfer(pc, s)
			}
			for _, sb := range b.Succs {
				if !f.reached[sb] {
					f.in[sb] = p.Clone(s)
					f.reached[sb] = true
					changed = true
				} else if nv, ch := p.Join(f.in[sb], s); ch {
					f.in[sb] = nv
					changed = true
				}
			}
		}
		if !changed {
			f.Converged = true
			return f
		}
	}
	return f
}

// Replay hands visit the in-state of every reachable pc, in increasing
// address order. visit owns s and returns the state after pc, normally
// by applying the problem's Transfer while it observes s.
func (f *Forward[S]) Replay(visit func(pc int, s S) S) {
	for bi, b := range f.g.blocks {
		if !f.reached[bi] {
			continue
		}
		s := f.p.Clone(f.in[bi])
		for pc := b.Start; pc < b.End; pc++ {
			s = visit(pc, s)
		}
	}
}

// BackwardProblem is a backward may-analysis: facts flow from every
// instruction to its predecessors. The in-state of pc is
// Transfer(pc, ⋃ in[succ]).
type BackwardProblem[S any] interface {
	// New returns the bottom (empty) state.
	New() S
	// Merge unions src into dst and returns dst. It may mutate dst but
	// must not mutate src.
	Merge(dst, src S) S
	// Transfer computes the in-state from the merged successor state
	// out, which the engine owns; it may mutate out.
	Transfer(pc int, out S) S
	// Eq reports whether two states are equal (the convergence test).
	Eq(a, b S) bool
}

// Backward is a solved backward problem: the fixed in-state of every
// basic block. Every block has one, reachable from the entry or not.
type Backward[S any] struct {
	g  *Graph
	p  BackwardProblem[S]
	in []S // per block
	// Converged reports whether the fixpoint was reached within the
	// pass cap.
	Converged bool
}

// SolveBackward computes the backward fixpoint over g in at most
// maxPasses sweeps.
func SolveBackward[S any](g *Graph, p BackwardProblem[S], maxPasses int) *Backward[S] {
	blocks := g.blocks
	bw := &Backward[S]{g: g, p: p, in: make([]S, len(blocks))}
	for i := range bw.in {
		bw.in[i] = p.New()
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for bi := len(blocks) - 1; bi >= 0; bi-- {
			s := bw.out(bi)
			for pc := blocks[bi].End - 1; pc >= blocks[bi].Start; pc-- {
				s = p.Transfer(pc, s)
			}
			if !p.Eq(s, bw.in[bi]) {
				changed = true
			}
			bw.in[bi] = s
		}
		if !changed {
			bw.Converged = true
			return bw
		}
	}
	return bw
}

// out merges the in-states of block bi's successors.
func (bw *Backward[S]) out(bi int) S {
	s := bw.p.New()
	for _, sb := range bw.g.blocks[bi].Succs {
		s = bw.p.Merge(s, bw.in[sb])
	}
	return s
}

// Replay hands visit the out-state of every pc: blocks in address
// order, each walked from its last instruction to its first. visit owns
// out and returns the in-state of pc, normally by applying the
// problem's Transfer after it observes out.
func (bw *Backward[S]) Replay(visit func(pc int, out S) S) {
	for bi, b := range bw.g.blocks {
		s := bw.out(bi)
		for pc := b.End - 1; pc >= b.Start; pc-- {
			s = visit(pc, s)
		}
	}
}
