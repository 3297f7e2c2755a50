package modelnet_test

// The source loader the map-order and dead-code checks share: it type-checks
// the module's non-test code from source once per test binary — every
// package under internal/, the root façade, cmd/, examples/ and the
// benchmark module — and keeps the syntax and the types of everything it
// checked.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// checkedTrees are the trees loaded beside the root package, each with every
// package below it.
var checkedTrees = []string{"internal", "cmd", "examples", "benchmark"}

var (
	loadOnce   sync.Once
	loaded     *modImporter
	loadFailed error
)

// loadModule type-checks the module once and hands every caller the result.
func loadModule(t *testing.T) *modImporter {
	t.Helper()
	loadOnce.Do(func() { loaded, loadFailed = load() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

func load() (*modImporter, error) {
	// cgo off: the standard library's pure-Go files type-check without a C
	// toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &modImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	dirs := []string{"."} // the root façade; its subdirectories are the trees below
	for _, root := range checkedTrees {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err == nil && d.IsDir() && d.Name() != "testdata" {
				dirs = append(dirs, filepath.ToSlash(path))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for _, dir := range dirs {
		if _, err := m.Import(importPath(dir)); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", dir, err)
		}
		if len(m.files[dir]) > 0 { // else a directory of directories
			m.dirs = append(m.dirs, dir)
		}
	}
	return m, nil
}

// ledgered reports whether the ledgers hold a package directory's code: the
// root package and every package under internal/. The other trees are loaded
// as callers only.
func ledgered(dir string) bool { return dir == "." || strings.HasPrefix(dir, "internal/") }

// importPath is the import path of a package directory. The benchmark
// module's path, modelnet/benchmark, reads as if it were a directory of this
// one, which is where its source is.
func importPath(dir string) string {
	if dir == "." {
		return "modelnet"
	}
	return "modelnet/" + dir
}

// modImporter type-checks this module's packages from source, on demand, and
// hands every other import to the standard library's source importer.
type modImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package // by import path
	files map[string][]*ast.File    // by directory: what was checked
	info  *types.Info               // of every package checked
	dirs  []string                  // every package directory loadModule checked, "." for the root
}

func (im *modImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "modelnet/")
	if path == "modelnet" { // the root façade: the standard library's importer would check its own copy of internal/
		dir, ok = ".", true
	}
	if !ok {
		return im.std.Import(path)
	}
	if p := im.pkgs[path]; p != nil {
		return p, nil
	}
	files, err := parseDir(im.fset, dir)
	if err != nil {
		return nil, err
	}
	p, err := (&types.Config{Importer: im}).Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path], im.files[dir] = p, files
	return p, nil
}

// parseDir parses a directory's non-test Go files that build on this host.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
