package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/prim"
	"repro/internal/sexp"
	"repro/internal/vm"
)

// CodecVersion identifies the entry payload layout. Bump it whenever a
// field is added, removed or re-ordered: a store written by one version
// is then treated as all-misses by the next, which is exactly the
// recovery story (recompile and overwrite) rather than a migration.
const CodecVersion = 1

// encodeCompiled serializes a compilation result. Only plain
// compilations are persistable: a Compiled carrying a lint report is
// refused (the report holds analyzer structures that are cheap to
// recompute and are not part of the shared-cache contract).
func encodeCompiled(c *compiler.Compiled) ([]byte, error) {
	if c == nil || c.Program == nil {
		return nil, fmt.Errorf("store: nil compilation")
	}
	if c.Lint != nil {
		return nil, fmt.Errorf("store: compilations carrying a lint report are not persisted")
	}
	e := &encoder{}
	e.program(c.Program)
	e.stats(&c.Stats)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// decodeCompiled parses an entry payload back into a compilation
// result. Any malformed input yields an error, never a panic or a
// half-built program — the store turns every decode error into a cache
// miss.
func decodeCompiled(data []byte) (*compiler.Compiled, error) {
	d := &decoder{data: data}
	p := d.program()
	st := d.stats()
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("store: %d trailing bytes after payload", len(d.data)-d.pos)
	}
	return &compiler.Compiled{Program: p, Stats: st}, nil
}

// ---- encoder ----

type encoder struct {
	buf []byte
	err error
}

func (e *encoder) uvarint(n uint64) { e.buf = binary.AppendUvarint(e.buf, n) }
func (e *encoder) varint(n int64)   { e.buf = binary.AppendVarint(e.buf, n) }
func (e *encoder) int(n int)        { e.varint(int64(n)) }
func (e *encoder) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }
func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) program(p *vm.Program) {
	e.int(p.Config.ArgRegs)
	e.int(p.Config.UserRegs)
	e.int(p.Config.ScratchRegs)
	e.int(p.Config.CalleeSaveRegs)
	e.int(p.MainIndex)

	e.uvarint(uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		e.byte(byte(in.Op))
		e.int(in.A)
		e.int(in.B)
		e.int(in.C)
		e.uvarint(uint64(len(in.Regs)))
		for _, r := range in.Regs {
			e.int(r)
		}
		e.byte(byte(in.Kind))
		e.varint(int64(in.Predict))
	}

	e.uvarint(uint64(len(p.Consts)))
	for _, c := range p.Consts {
		e.value(c, 0)
	}
	e.uvarint(uint64(len(p.ConstMutable)))
	for _, m := range p.ConstMutable {
		e.bool(m)
	}

	e.uvarint(uint64(len(p.Prims)))
	for _, d := range p.Prims {
		if d == nil {
			e.setErr(fmt.Errorf("store: nil primitive in pool"))
			return
		}
		e.string(string(d.Name))
	}

	e.uvarint(uint64(len(p.Procs)))
	for _, pi := range p.Procs {
		e.string(pi.Name)
		e.int(pi.Entry)
		e.int(pi.NArgs)
		e.int(pi.NFree)
		e.bool(pi.SyntacticLeaf)
		e.bool(pi.CallInevitable)
	}

	e.uvarint(uint64(len(p.GlobalNames)))
	for _, g := range p.GlobalNames {
		e.string(string(g))
	}
	e.uvarint(uint64(len(p.PrimGlobals)))
	for _, d := range p.PrimGlobals {
		if d == nil {
			e.string("")
		} else {
			e.string(string(d.Name))
		}
	}

	e.uvarint(uint64(len(p.Shuffles)))
	for _, sh := range p.Shuffles {
		e.int(sh.StartPC)
		e.int(sh.CallPC)
		e.uvarint(uint64(len(sh.Assigns)))
		for _, a := range sh.Assigns {
			e.int(a.Target)
			e.int(a.Src)
			e.bool(a.SrcIsSlot)
		}
	}
}

func (e *encoder) stats(st *codegen.Stats) {
	for _, n := range []int{
		st.CallSites, st.CyclicCallSites, st.ShuffleTemps, st.OptimalTemps,
		st.SitesOptimal, st.SitesSuboptimal, st.ExtraTempsWorst,
		st.SaveSites, st.RestoreSites, st.DefensiveRestores,
		st.Procs, st.SyntacticLeaves, st.CallInevitable, st.Instructions,
	} {
		e.int(n)
	}
}

// Constant-pool value tags. Constants are datum-shaped (they come from
// quoted literals and the emitter's sentinels), so the codec covers
// exactly the sexp.Datum kinds plus the zero Value.
const (
	tNone byte = iota
	tFixnum
	tFlonum
	tBool
	tChar
	tSymbol
	tString
	tEmpty
	tPair
	tVector
)

// maxConstDepth bounds recursion while decoding nested pairs/vectors so
// a corrupt entry cannot blow the stack; real constant pools are
// shallow (quoted program literals).
const maxConstDepth = 10_000

func (e *encoder) value(v prim.Value, depth int) {
	if e.err != nil {
		return
	}
	if depth > maxConstDepth {
		e.setErr(fmt.Errorf("store: constant nesting exceeds %d", maxConstDepth))
		return
	}
	switch {
	case v.IsNone():
		e.byte(tNone)
	case v.IsEmpty():
		e.byte(tEmpty)
	case v.IsBool():
		b, _ := v.Bool()
		e.byte(tBool)
		e.bool(b)
	default:
		if n, ok := v.Fixnum(); ok {
			e.byte(tFixnum)
			e.varint(n)
			return
		}
		if f, ok := v.Flonum(); ok {
			e.byte(tFlonum)
			e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(f))
			return
		}
		if c, ok := v.Char(); ok {
			e.byte(tChar)
			e.varint(int64(c))
			return
		}
		if s, ok := v.Symbol(); ok {
			e.byte(tSymbol)
			e.string(string(s))
			return
		}
		if s, ok := v.Str(); ok {
			e.byte(tString)
			e.string(string(s))
			return
		}
		if p, ok := v.Pair(); ok {
			e.byte(tPair)
			e.value(p.Car, depth+1)
			e.value(p.Cdr, depth+1)
			return
		}
		if vec, ok := v.Vector(); ok {
			e.byte(tVector)
			e.uvarint(uint64(len(vec.Items)))
			for _, it := range vec.Items {
				e.value(it, depth+1)
			}
			return
		}
		e.setErr(fmt.Errorf("store: constant %s is not datum-shaped", prim.WriteString(v)))
	}
}

func (e *encoder) setErr(err error) {
	if e.err == nil {
		e.err = err
	}
}

// ---- decoder ----

type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	n, w := binary.Uvarint(d.data[d.pos:])
	if w <= 0 {
		d.fail("truncated uvarint at %d", d.pos)
		return 0
	}
	d.pos += w
	return n
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	n, w := binary.Varint(d.data[d.pos:])
	if w <= 0 {
		d.fail("truncated varint at %d", d.pos)
		return 0
	}
	d.pos += w
	return n
}

func (d *decoder) int() int { return int(d.varint()) }

// count reads a length prefix and sanity-bounds it against the bytes
// remaining, so a corrupt length cannot drive a giant allocation.
func (d *decoder) count(elemMin int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64((len(d.data)-d.pos)/elemMin)+1 {
		d.fail("implausible count %d at %d", n, d.pos)
		return 0
	}
	return int(n)
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.fail("truncated at %d", d.pos)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) string() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	if d.pos+n > len(d.data) {
		d.fail("truncated string at %d", d.pos)
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *decoder) program() *vm.Program {
	// Build every field in locals and assemble with one composite
	// literal at the end: the srclint immutability analyzer proves
	// vm.Program is never written after construction, and this decoder
	// must look like construction, not mutation, under that proof.
	var cfg vm.Config
	cfg.ArgRegs = d.int()
	cfg.UserRegs = d.int()
	cfg.ScratchRegs = d.int()
	cfg.CalleeSaveRegs = d.int()
	mainIndex := d.int()

	nCode := d.count(4)
	if d.err != nil {
		return nil
	}
	code := make([]vm.Instr, nCode)
	for i := range code {
		in := &code[i]
		in.Op = vm.Op(d.byte())
		in.A = d.int()
		in.B = d.int()
		in.C = d.int()
		if nRegs := d.count(1); nRegs > 0 {
			in.Regs = make([]int, nRegs)
			for j := range in.Regs {
				in.Regs[j] = d.int()
			}
		}
		in.Kind = vm.SlotKind(d.byte())
		in.Predict = int8(d.varint())
		if d.err != nil {
			return nil
		}
	}

	nConsts := d.count(1)
	if d.err != nil {
		return nil
	}
	consts := make([]prim.Value, nConsts)
	for i := range consts {
		consts[i] = d.value(0)
		if d.err != nil {
			return nil
		}
	}
	nMut := d.count(1)
	if d.err != nil {
		return nil
	}
	if nMut != nConsts {
		d.fail("const-mutable length %d does not match %d constants", nMut, nConsts)
		return nil
	}
	constMutable := make([]bool, nMut)
	for i := range constMutable {
		constMutable[i] = d.bool()
	}

	nPrims := d.count(2)
	if d.err != nil {
		return nil
	}
	prims := make([]*prim.Def, nPrims)
	for i := range prims {
		name := d.string()
		if d.err != nil {
			return nil
		}
		def := prim.Lookup(sexp.Symbol(name))
		if def == nil {
			d.fail("unknown primitive %q", name)
			return nil
		}
		prims[i] = def
	}

	nProcs := d.count(6)
	if d.err != nil {
		return nil
	}
	procs := make([]vm.ProcInfo, nProcs)
	for i := range procs {
		procs[i] = vm.ProcInfo{
			Name:           d.string(),
			Entry:          d.int(),
			NArgs:          d.int(),
			NFree:          d.int(),
			SyntacticLeaf:  d.bool(),
			CallInevitable: d.bool(),
		}
		if d.err != nil {
			return nil
		}
	}

	nGlobals := d.count(1)
	if d.err != nil {
		return nil
	}
	globalNames := make([]sexp.Symbol, nGlobals)
	for i := range globalNames {
		globalNames[i] = sexp.Symbol(d.string())
	}
	nPrimGlobals := d.count(1)
	if d.err != nil {
		return nil
	}
	if nPrimGlobals != nGlobals {
		d.fail("prim-global length %d does not match %d globals", nPrimGlobals, nGlobals)
		return nil
	}
	primGlobals := make([]*prim.Def, nPrimGlobals)
	for i := range primGlobals {
		name := d.string()
		if d.err != nil {
			return nil
		}
		if name == "" {
			continue
		}
		def := prim.Lookup(sexp.Symbol(name))
		if def == nil {
			d.fail("unknown primitive global %q", name)
			return nil
		}
		primGlobals[i] = def
	}

	nShuffles := d.count(3)
	if d.err != nil {
		return nil
	}
	shuffles := make([]vm.ShuffleRecord, nShuffles)
	for i := range shuffles {
		sh := &shuffles[i]
		sh.StartPC = d.int()
		sh.CallPC = d.int()
		if nAssigns := d.count(3); nAssigns > 0 {
			sh.Assigns = make([]vm.ShuffleAssign, nAssigns)
			for j := range sh.Assigns {
				sh.Assigns[j] = vm.ShuffleAssign{
					Target:    d.int(),
					Src:       d.int(),
					SrcIsSlot: d.bool(),
				}
			}
		}
		if d.err != nil {
			return nil
		}
	}
	if d.err != nil {
		return nil
	}
	return &vm.Program{
		Config:       cfg,
		MainIndex:    mainIndex,
		Code:         code,
		Consts:       consts,
		ConstMutable: constMutable,
		Prims:        prims,
		Procs:        procs,
		GlobalNames:  globalNames,
		PrimGlobals:  primGlobals,
		Shuffles:     shuffles,
	}
}

func (d *decoder) stats() codegen.Stats {
	var st codegen.Stats
	for _, f := range []*int{
		&st.CallSites, &st.CyclicCallSites, &st.ShuffleTemps, &st.OptimalTemps,
		&st.SitesOptimal, &st.SitesSuboptimal, &st.ExtraTempsWorst,
		&st.SaveSites, &st.RestoreSites, &st.DefensiveRestores,
		&st.Procs, &st.SyntacticLeaves, &st.CallInevitable, &st.Instructions,
	} {
		*f = d.int()
	}
	return st
}

// value decodes one constant by rebuilding the reader-level datum and
// converting it through prim.FromDatum — the exact path the compiler
// takes for quoted literals, so a decoded constant is bit-identical in
// canonical encoding to a freshly compiled one.
func (d *decoder) value(depth int) prim.Value {
	if depth > maxConstDepth {
		d.fail("constant nesting exceeds %d", maxConstDepth)
		return prim.Value{}
	}
	switch tag := d.byte(); tag {
	case tNone:
		return prim.Value{}
	case tFixnum:
		return prim.FixV(d.varint())
	case tFlonum:
		if d.pos+8 > len(d.data) {
			d.fail("truncated flonum at %d", d.pos)
			return prim.Value{}
		}
		bits := binary.BigEndian.Uint64(d.data[d.pos:])
		d.pos += 8
		return prim.FloV(math.Float64frombits(bits))
	case tBool:
		return prim.BoolV(d.bool())
	case tChar:
		return prim.CharV(rune(d.varint()))
	case tSymbol:
		return prim.SymV(sexp.Symbol(d.string()))
	case tString:
		return prim.StrV(sexp.Str(d.string()))
	case tEmpty:
		return prim.Empty
	case tPair:
		car := d.value(depth + 1)
		cdr := d.value(depth + 1)
		if d.err != nil {
			return prim.Value{}
		}
		return prim.PairV(&prim.Pair{Car: car, Cdr: cdr})
	case tVector:
		n := d.count(1)
		if d.err != nil {
			return prim.Value{}
		}
		items := make([]prim.Value, n)
		for i := range items {
			items[i] = d.value(depth + 1)
			if d.err != nil {
				return prim.Value{}
			}
		}
		return prim.VecV(&prim.Vector{Items: items})
	default:
		d.fail("unknown constant tag %d at %d", tag, d.pos-1)
		return prim.Value{}
	}
}
