package srclint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
)

// Loader memoizes the expensive front half of the suite: one
// `go list -deps -export` walk plus one type-check of the whole module,
// shared by every analyzer that needs resolved syntax instead of being
// re-run per analyzer.
type Loader struct {
	// Root is the module root directory.
	Root string

	once sync.Once
	pkgs []*Pkg
	err  error
}

// NewLoader returns a loader for the module at root.
func NewLoader(root string) *Loader { return &Loader{Root: root} }

// Packages type-checks the whole module on first use and returns the
// shared result to every caller.
func (l *Loader) Packages() ([]*Pkg, error) {
	l.once.Do(func() {
		l.pkgs, l.err = LoadPackages(l.Root, "./...")
	})
	return l.pkgs, l.err
}

// Package returns one loaded package by import path.
func (l *Loader) Package(path string) (*Pkg, error) {
	pkgs, err := l.Packages()
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.Path == path {
			return p, nil
		}
	}
	return nil, fmt.Errorf("srclint: package %s not found in module", path)
}

// Pkg is one type-checked package: its syntax plus the go/types
// objects the analyzers resolve names against.
type Pkg struct {
	// Path is the import path ("repro/internal/vm").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions every node in Files.
	Fset *token.FileSet
	// Files is the parsed, non-test syntax of the package.
	Files []*ast.File
	// Types is the checked package object.
	Types *types.Package
	// Info carries the resolved uses/defs/types/selections.
	Info *types.Info
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` under root and decodes the
// package stream. The -export flag makes the go tool compile every
// package (through the build cache) and report the path of its export
// data, which is what lets the analyzers type-check repository source
// with nothing but the standard library: imports resolve through the
// gc importer reading those export files.
func goList(root string, patterns ...string) ([]*listedPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("srclint: go list %v: %v\n%s", patterns, err, errb.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(&out)
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("srclint: parse go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("srclint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadPackages type-checks the packages matching the given go patterns
// (relative to the module root) from source, resolving their imports
// through compiled export data. Test files are excluded — the negative
// corpora deliberately violate the invariants in _test.go files, and
// the contracts the analyzers prove bind only shipped code.
func LoadPackages(root string, patterns ...string) ([]*Pkg, error) {
	listed, err := goList(root, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("srclint: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Pkg
	for _, p := range listed {
		if p.DepOnly {
			continue
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("srclint: %v", err)
			}
			files = append(files, f)
		}
		pkg, info, err := check(p.ImportPath, fset, files, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Pkg{
			Path:  p.ImportPath,
			Dir:   p.Dir,
			Fset:  fset,
			Files: files,
			Types: pkg,
			Info:  info,
		})
	}
	return out, nil
}

// CheckSource type-checks a single in-memory file as its own package.
// It is the test harness for the analyzers' negative corpora: snippets
// are self-contained (import nothing), so no importer is needed.
func CheckSource(path, src string) (*Pkg, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("srclint: %v", err)
	}
	files := []*ast.File{f}
	pkg, info, err := check(path, fset, files, nil)
	if err != nil {
		return nil, err
	}
	return &Pkg{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

func check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("srclint: type-check %s: %v", path, err)
	}
	return pkg, info, nil
}

// position renders a node's file-relative location for findings. The
// file path is made relative to root when possible so findings are
// stable across checkouts.
func position(root string, fset *token.FileSet, pos token.Pos) (file string, line int) {
	p := fset.Position(pos)
	file = p.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
			file = filepath.ToSlash(rel)
		}
	}
	return file, p.Line
}
