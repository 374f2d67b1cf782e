package dicer

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// source is the module's non-test code and perfbench, type-checked once
// per test binary for the checks that read it.
type source struct {
	fset *token.FileSet
	std  types.Importer
	pkgs []*loadedPkg
}

var (
	sourceOnce sync.Once
	sourceVal  *source
	sourceErr  error
)

// loadSource returns the type-checked module, loading it on first use.
func loadSource(t *testing.T) *source {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	sourceOnce.Do(func() { sourceVal, sourceErr = loadModule() })
	if sourceErr != nil {
		t.Fatal(sourceErr)
	}
	return sourceVal
}

// loadModule type-checks every package directory under the module root,
// perfbench included, skipping testdata and hidden directories.
func loadModule() (*source, error) {
	fset := token.NewFileSet()
	l := &sourceLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*loadedPkg{}}
	var dirs []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	src := &source{fset: fset, std: l.std}
	for _, dir := range dirs {
		p, err := l.load(importPathOf(dir))
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		src.pkgs = append(src.pkgs, p)
	}
	return src, nil
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// modulePath is the module's import path; the test runs in its root.
const modulePath = "dicer"

// perfbenchPath is the benchmark's own module. It counts as a caller,
// but its declarations are not checked: it changes only in a benchmark
// change.
const perfbenchPath = modulePath + "/perfbench"

func importPathOf(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// sourceLoader type-checks the module's packages from their non-test
// files, once each, so a declaration is one object wherever it is used;
// everything else comes from the standard library through the source
// importer. perfbench is a module of its own, dicer/perfbench, whose
// go.mod replaces dicer with this checkout, so its imports resolve to the
// same packages.
type sourceLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPkg
}

func (l *sourceLoader) Import(p string) (*types.Package, error) {
	if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
		return l.std.Import(p)
	}
	lp, err := l.load(p)
	if err != nil {
		return nil, err
	}
	return lp.pkg, nil
}

func (l *sourceLoader) load(p string) (*loadedPkg, error) {
	if lp, ok := l.pkgs[p]; ok {
		return lp, nil
	}
	dir := "."
	if p != modulePath {
		dir = filepath.FromSlash(strings.TrimPrefix(p, modulePath+"/"))
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: l}
	lp.pkg, err = conf.Check(p, l.fset, lp.files, lp.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = lp
	return lp, nil
}
