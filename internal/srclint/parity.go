package srclint

// The engine-parity analyzer: structural cross-checks between the two
// execution engines and their dispatch tables. TestEngineEquivalence
// proves the engines agree on every program it runs; this analyzer
// proves the table shapes agree on every opcode, so "forgot to add the
// case" drift surfaces as a named finding at lint time instead of a
// differential-test debugging session at run time. The checks:
//
//   - every Op constant has a case in the reference switch loop and in
//     the threaded engine's decoder (decodeOne);
//   - every dispatch code (xcode constant) has an arm in runThreaded,
//     except the ones configured as deliberately default-handled — so
//     every specialized-primitive code specPrim can return, and every
//     slow-path code the decoder can install, has an arm to run in.
//
// What it deliberately cannot prove: that an arm's *body* matches the
// switch loop's semantics — that remains TestEngineEquivalence's job.
// Parity here is table-shape parity: presence, not behaviour.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/findings"
)

// ParityConfig names the engine surfaces the analyzer cross-checks.
// Every name is package-local to the analyzed package.
type ParityConfig struct {
	// OpType is the opcode constant type ("Op").
	OpType string
	// XType is the threaded engine's dispatch-code type ("xcode").
	XType string
	// SwitchFunc is the reference switch loop ("loop").
	SwitchFunc string
	// DecodeFunc is the threaded engine's decoder ("decodeOne").
	DecodeFunc string
	// ThreadedFunc is the threaded dispatch loop ("runThreaded").
	ThreadedFunc string
	// DefaultX lists XType constants deliberately handled by the
	// threaded loop's default arm ("xUnknown").
	DefaultX []string
}

// DefaultParityConfig matches internal/vm's engine surfaces.
func DefaultParityConfig() ParityConfig {
	return ParityConfig{
		OpType:       "Op",
		XType:        "xcode",
		SwitchFunc:   "loop",
		DecodeFunc:   "decodeOne",
		ThreadedFunc: "runThreaded",
		DefaultX:     []string{"xUnknown"},
	}
}

// CheckParity runs the engine cross-checks over the given package
// (normally internal/vm).
func CheckParity(root string, pkg *Pkg, cfg ParityConfig) ([]findings.Finding, error) {
	c := &parityCheck{root: root, pkg: pkg, cfg: cfg}
	return c.run()
}

type parityCheck struct {
	root  string
	pkg   *Pkg
	cfg   ParityConfig
	found []findings.Finding
}

func (c *parityCheck) run() ([]findings.Finding, error) {
	opConsts, err := c.constsOf(c.cfg.OpType)
	if err != nil {
		return nil, err
	}
	xConsts, err := c.constsOf(c.cfg.XType)
	if err != nil {
		return nil, err
	}

	// 1+2: opcode coverage in both engines' dispatch tables.
	c.checkCoverage(opConsts, c.cfg.SwitchFunc, "missing-switch-case",
		"the reference switch loop has no case for it; both engines must handle every opcode", nil)
	c.checkCoverage(opConsts, c.cfg.DecodeFunc, "missing-decode-case",
		"the threaded engine's decoder has no case for it, so it would decode as unknown and trap where the switch loop succeeds", nil)

	// 3: dispatch-code coverage in the threaded loop.
	defaultX := map[string]bool{}
	for _, n := range c.cfg.DefaultX {
		defaultX[n] = true
	}
	c.checkCoverage(xConsts, c.cfg.ThreadedFunc, "missing-threaded-arm",
		"the threaded dispatch loop has no arm for it", defaultX)

	return c.found, nil
}

// constDecl is one constant of the watched type.
type constDecl struct {
	obj *types.Const
	pos token.Pos
}

// constsOf collects the package-level constants of the named type, in
// declaration (iota) order.
func (c *parityCheck) constsOf(typeName string) ([]constDecl, error) {
	tobj := c.pkg.Types.Scope().Lookup(typeName)
	if tobj == nil {
		return nil, fmt.Errorf("srclint: parity: type %s not found in %s", typeName, c.pkg.Path)
	}
	var out []constDecl
	for ident, obj := range c.pkg.Info.Defs {
		cobj, ok := obj.(*types.Const)
		if !ok || cobj.Parent() != c.pkg.Types.Scope() {
			continue
		}
		if types.Identical(cobj.Type(), tobj.Type()) {
			out = append(out, constDecl{obj: cobj, pos: ident.Pos()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		vi, _ := constant.Int64Val(out[i].obj.Val())
		vj, _ := constant.Int64Val(out[j].obj.Val())
		return vi < vj
	})
	return out, nil
}

// funcBody returns the body of the package function or method with the
// given name (names are unique across the package's surfaces).
func (c *parityCheck) funcBody(name string) *ast.FuncDecl {
	for _, file := range c.pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

// caseConsts collects every constant of the watched set used as a
// switch-case expression anywhere in the function body (nested
// switches included).
func (c *parityCheck) caseConsts(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, expr := range cc.List {
			if id, ok := expr.(*ast.Ident); ok {
				if obj, ok := c.pkg.Info.Uses[id].(*types.Const); ok {
					out[obj.Name()] = true
				}
			}
		}
		return true
	})
	return out
}

func (c *parityCheck) checkCoverage(consts []constDecl, funcName, kind, why string, exempt map[string]bool) {
	fd := c.funcBody(funcName)
	if fd == nil {
		c.reportAt(token.NoPos, kind, fmt.Sprintf("dispatch function %s not found in %s", funcName, c.pkg.Path))
		return
	}
	covered := c.caseConsts(fd)
	for _, cd := range consts {
		name := cd.obj.Name()
		if exempt[name] || covered[name] {
			continue
		}
		c.reportAt(cd.pos, kind, fmt.Sprintf("%s is declared but %s: %s", name, funcName, why))
	}
}

func (c *parityCheck) reportAt(pos token.Pos, kind, msg string) {
	var file string
	var line int
	if pos.IsValid() {
		file, line = position(c.root, c.pkg.Fset, pos)
	}
	c.found = append(c.found, findings.Finding{
		Tool: "srclint", Kind: kind,
		File: file, Line: line,
		PC: -1, Reg: -1, Slot: -1, CallPC: -1,
		Msg: msg,
	})
}
