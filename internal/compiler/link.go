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
//
// The verifier's and the lint's verdict on a procedure is likewise a
// function of that procedure alone (DESIGN.md §18), so the prelude's
// procedures are verified and linted once per options key too, on the
// first checked compile under it. A checked linked compile then checks
// only the procedures and main the program adds, and merges in the
// prelude's lint report.

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/codegen"
	"repro/internal/passes"
	"repro/internal/prelude"
	"repro/internal/sexp"
	"repro/internal/verify"
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
// when the link test fails. It returns the prefix entry the program
// was linked after, nil when it was compiled whole, and sets
// *converted as compileWhole does.
func link(prog *ast.Program, opts codegen.Options, converted *time.Time) (*vm.Program, codegen.Stats, *prefixEntry, error) {
	pl, err := loadPrelude()
	if err != nil {
		return nil, codegen.Stats{}, nil, err
	}
	user := &ast.Program{Defs: prog.Defs[len(pl.ast.Defs):], Body: prog.Body, NumVars: prog.NumVars}
	if !pl.lib.Links(user) {
		code, stats, err := compileWhole(prog, opts, converted)
		return code, stats, nil, err
	}
	irProg, err := pl.lib.Link(passes.AssignConvert(user))
	if err != nil {
		return nil, codegen.Stats{}, nil, err
	}
	*converted = time.Now()
	e, err := prefixes.get(opts)
	if err != nil {
		return nil, codegen.Stats{}, nil, err
	}
	code, stats, err := e.pre.Link(irProg)
	return code, stats, e, err
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
	// checkOnce guards checks, made on the first checked compile under
	// the key, so that unchecked compiles never pay for them.
	checkOnce sync.Once
	checks    *preludeChecks
}

// preludeChecks are the prelude's own verify and lint verdicts under
// one options key: its procedures verify clean, and lint is their
// report. A program linked after the prelude is checked from address
// from on, where its own code begins.
type preludeChecks struct {
	from int
	lint *analysis.Report
}

// prelude returns the prelude's verdicts, checking its procedures as a
// program of their own on first use. It returns nil when they do not
// verify clean, which only a code generator fault causes; every checked
// compile under the key then checks the whole program, since a pool
// index out of range in the prelude alone may be in range in a longer
// linked program, and such a verdict is not the prelude's own.
func (e *prefixEntry) prelude() *preludeChecks {
	e.checkOnce.Do(func() {
		pl, err := loadPrelude()
		if err != nil {
			return
		}
		part := e.pre.Program(pl.lib.GlobalNames())
		if len(verify.Procedures(part, 0)) > 0 {
			return
		}
		e.checks = &preludeChecks{from: len(part.Code), lint: analysis.Analyze(part)}
	})
	return e.checks
}

var prefixes = newPrefixCache()

func newPrefixCache() *prefixCache {
	return &prefixCache{byKey: map[codegen.Options]*list.Element{}}
}

// get returns the entry for opts, emitting the prelude's prefix on
// first use. The key is opts with the post-passes cleared, since they
// only check the code. Invalid options get an error and make no entry.
func (c *prefixCache) get(opts codegen.Options) (*prefixEntry, error) {
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
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}
