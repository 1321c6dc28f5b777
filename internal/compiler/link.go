package compiler

// Linking after the precompiled prelude.
//
// Every program begins with the prelude's definitions, and the
// allocator is intraprocedural (§3), so a prelude procedure's code
// depends on the program after it in only two ways. One is whether the
// program defines or assigns a name the prelude's closure conversion
// assumed it would not (the primitives the prelude open-codes); the
// library records that set, and such a program is compiled whole. The
// other is numbering: code addresses, procedure indices, global cells,
// pool slots and generated names. The prelude fixes those by coming
// first, so its output is a prefix of every program's and linking
// needs no relocation.
//
// The prelude is therefore read, expanded, assignment-converted and
// closure-converted once per process, and its procedures are emitted
// once per code-affecting options key. A linked compile expands the
// program's own forms after the prelude's, converts its definitions
// and body after the prelude's global table, and emits its procedures
// and main after a copy of the prelude's code generator state.

import (
	"container/list"
	"sync"

	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/passes"
	"repro/internal/prelude"
	"repro/internal/sexp"
	"repro/internal/vm"
)

// preludeUnit is the prelude's front end, built once per process and
// only read afterwards.
type preludeUnit struct {
	// ast is the expanded prelude, which every program is parsed after.
	ast *ast.Program
	// defs are its assignment-converted definitions.
	defs []ast.Def
	// lib is their closure conversion, against which programs are
	// linked. Its procedures are never compiled: the allocator
	// annotates IR in place, so each options key's prefix is built
	// from a conversion of its own.
	lib *passes.Library
}

var loadPrelude = sync.OnceValues(func() (*preludeUnit, error) {
	forms, err := sexp.ReadAll(prelude.Source)
	if err != nil {
		return nil, err
	}
	prog, err := ast.ParseProgram(forms)
	if err != nil {
		return nil, err
	}
	defs := passes.AssignConvert(prog).Defs
	lib, err := passes.ConvertLibrary(defs)
	if err != nil {
		return nil, err
	}
	return &preludeUnit{ast: prog, defs: defs, lib: lib}, nil
})

// link compiles prog, parsed after the prelude, by linking its own
// definitions and body after the prelude's precompiled code, or whole
// when the link test fails.
func link(prog *ast.Program, opts codegen.Options) (*vm.Program, codegen.Stats, error) {
	pl, err := loadPrelude()
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	user := &ast.Program{Defs: prog.Defs[len(pl.ast.Defs):], Body: prog.Body, NumVars: prog.NumVars}
	if !pl.lib.Links(user) {
		return compileWhole(prog, opts)
	}
	irProg, err := pl.lib.Link(passes.AssignConvert(user))
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	pre, err := prefixes.get(opts)
	if err != nil {
		return nil, codegen.Stats{}, err
	}
	return pre.Link(irProg)
}

// prefixCapacity bounds how many options keys keep an emitted prelude.
// lsrd clients choose the register configuration per request, so the
// set of keys is open, and the least recently used one is dropped. The
// largest configuration set the tests, the benchmark sweeps and the
// fuzzers compile under fits with room to spare.
const prefixCapacity = 64

// prefixCache holds the prelude's emitted code per options key.
type prefixCache struct {
	mu    sync.Mutex
	byKey map[codegen.Options]*list.Element
	lru   list.List // of *prefixEntry, most recently used first
}

type prefixEntry struct {
	key  codegen.Options
	once sync.Once
	pre  *codegen.Prefix
	err  error
}

var prefixes = newPrefixCache()

func newPrefixCache() *prefixCache {
	return &prefixCache{byKey: map[codegen.Options]*list.Element{}}
}

// get returns the prelude's prefix for opts, emitting it on first use.
// The key is opts with the post-passes cleared, since they only check
// the code. Invalid options get an error and make no entry.
func (c *prefixCache) get(opts codegen.Options) (*codegen.Prefix, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	opts.Verify, opts.Lint = false, false
	c.mu.Lock()
	el, ok := c.byKey[opts]
	if ok {
		c.lru.MoveToFront(el)
	} else {
		el = c.lru.PushFront(&prefixEntry{key: opts})
		c.byKey[opts] = el
		if c.lru.Len() > prefixCapacity {
			delete(c.byKey, c.lru.Remove(c.lru.Back()).(*prefixEntry).key)
		}
	}
	e := el.Value.(*prefixEntry)
	c.mu.Unlock()
	e.once.Do(func() {
		pl, err := loadPrelude()
		if err != nil {
			e.err = err
			return
		}
		lib, err := passes.ConvertLibrary(pl.defs)
		if err != nil {
			e.err = err
			return
		}
		e.pre, e.err = codegen.NewPrefix(lib.Procs, opts)
	})
	return e.pre, e.err
}
