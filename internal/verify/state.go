package verify

import "repro/internal/dataflow"

// The abstract domain. Each cell (register, frame slot, outgoing slot)
// holds an absVal:
//
//	aBot    unreachable / no information          (lattice bottom)
//	aDef    defined; sym identifies the value
//	aTop    defined, provenance lost              (widening)
//	aClob   possibly destroyed by a call; sym is the call's pc
//	aUndef  possibly never defined                (lattice top)
//
// Symbols name definition sites: positive symbols are instruction
// addresses (+1), negative symbols are entry seeds (return address,
// closure pointer, parameters, callee-saves), and symbols at or above
// pairBase are interned joins — two values merging at a join point get
// a deterministic pair symbol, so copy-equivalence survives joins (the
// save in one branch and the untouched register in the other still
// compare equal downstream).

type absKind uint8

const (
	aBot absKind = iota
	aDef
	aTop
	aClob
	aUndef
)

type absVal struct {
	k   absKind
	sym int32
}

// Entry-seed symbols. Stack parameters use symStackParam0-k, so with
// the argc sanity cap (maxArgc) the ranges cannot collide.
const (
	symRet        int32 = -2
	symCP         int32 = -3
	symArg0       int32 = -10  // argument i: symArg0 - i
	symCS0        int32 = -200 // callee-save i: symCS0 - i
	symStackParam int32 = -300 // stack parameter k: symStackParam - k
)

// pairBase is the first interned pair symbol; definition-site symbols
// (pc+1) stay far below it.
const pairBase int32 = 1 << 24

// maxPairs caps the interner; past it joins widen to aTop.
const maxPairs = 1 << 16

// symtab interns join symbols by their canonical leaf set, making the
// join idempotent, commutative and associative (so the fixpoint
// converges). Each procedure has its own: symbols never cross a
// procedure boundary, and a shared table would let the joins of the
// procedures checked first use up maxPairs and widen a later one's
// joins to aTop, making its verdict depend on what precedes it.
type symtab struct {
	sets    map[string]int32
	members map[int32][]int32
	next    int32
}

func newSymtab() *symtab {
	return &symtab{sets: map[string]int32{}, members: map[int32][]int32{}, next: pairBase}
}

// leaves expands a symbol to its sorted set of leaf symbols.
func (t *symtab) leaves(s int32) []int32 {
	if s >= pairBase {
		return t.members[s]
	}
	return []int32{s}
}

// maxLeafSet bounds the size of a join set; beyond it joins widen.
const maxLeafSet = 64

// pair returns the deterministic symbol for the join of a and b, or -1
// once the intern table or set size caps are hit (the caller widens).
func (t *symtab) pair(a, b int32) int32 {
	if a == b {
		return a
	}
	la, lb := t.leaves(a), t.leaves(b)
	merged := mergeSorted(la, lb)
	// Subset joins resolve to the existing symbol.
	if len(merged) == len(la) {
		return a
	}
	if len(merged) == len(lb) {
		return b
	}
	if len(merged) > maxLeafSet {
		return -1
	}
	key := encodeSet(merged)
	if s, ok := t.sets[key]; ok {
		return s
	}
	if len(t.sets) >= maxPairs {
		return -1
	}
	s := t.next
	t.next++
	t.sets[key] = s
	t.members[s] = merged
	return s
}

// mergeSorted unions two sorted, duplicate-free int32 slices.
func mergeSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// encodeSet renders a sorted leaf set as a map key.
func encodeSet(set []int32) string {
	buf := make([]byte, 0, len(set)*4)
	for _, s := range set {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(buf)
}

// join is the lattice join of two abstract values.
func (t *symtab) join(a, b absVal) absVal {
	if a == b {
		return a
	}
	if a.k == aBot {
		return b
	}
	if b.k == aBot {
		return a
	}
	if a.k == aUndef || b.k == aUndef {
		return absVal{k: aUndef}
	}
	if a.k == aClob || b.k == aClob {
		// Possibly-clobbered on some path; keep a clobbering pc if the
		// two sides agree, for the diagnostic.
		sym := a.sym
		if a.k != aClob {
			sym = b.sym
		} else if b.k == aClob && b.sym != a.sym {
			sym = -1
		}
		return absVal{k: aClob, sym: sym}
	}
	if a.k == aTop || b.k == aTop {
		return absVal{k: aTop}
	}
	if s := t.pair(a.sym, b.sym); s >= 0 {
		return absVal{k: aDef, sym: s}
	}
	return absVal{k: aTop}
}

// savedCopy tracks, per register, the most recent save that is valid on
// every path to the current point: the slot it went to and the value
// symbol it carried.
type savedCopy struct {
	ok   bool
	slot int32
	sym  int32
}

// state is the abstract machine state before one instruction. Frame
// slots and outgoing slots grow with the program, so they live in
// copy-on-write chunked cells: a clone shares them, and the fixpoint's
// per-block states cost O(frame/64) each rather than O(frame).
type state struct {
	regs  []absVal
	slots dataflow.Cells[absVal]
	outs  dataflow.Cells[absVal]
	saved []savedCopy
}

func (s *state) clone() state {
	return state{
		regs:  append([]absVal(nil), s.regs...),
		slots: s.slots.Clone(),
		outs:  s.outs.Clone(),
		saved: append([]savedCopy(nil), s.saved...),
	}
}

// joinInto merges src into dst, returning whether dst changed. dst must
// have the same cell counts.
func (t *symtab) joinInto(dst *state, src *state) bool {
	changed := false
	for i := range dst.regs {
		if nv := t.join(dst.regs[i], src.regs[i]); nv != dst.regs[i] {
			dst.regs[i] = nv
			changed = true
		}
	}
	if dst.slots.JoinFrom(&src.slots, t.join) {
		changed = true
	}
	if dst.outs.JoinFrom(&src.outs, t.join) {
		changed = true
	}
	for i := range dst.saved {
		d, s := dst.saved[i], src.saved[i]
		if d == s {
			continue
		}
		if d.ok && s.ok && d.slot == s.slot && d.sym == s.sym {
			continue
		}
		if d.ok {
			dst.saved[i] = savedCopy{}
			changed = true
		}
	}
	return changed
}
