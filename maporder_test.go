package modelnet_test

// The map-order ledger: Go randomizes map iteration order, so a `range` over
// a map whose order reaches a send, a scheduled event or an error makes a
// run differ from itself (RPCNode.Close once failed its pending calls that
// way). The test type-checks the non-test code of the packages a packet and
// its consequences run through and fails on every range over a map that has
// no row below; a row names the site and says why its order cannot matter.
// A row whose site is gone fails too, so the ledger stays the list of sites.

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
	"testing"
)

var mapRangeLedger = []struct {
	file, fn string // the site: file, and the function it is in
	why      string // why its iteration order cannot reach a send, a schedule or an error
}{
	{"internal/netstack/rpc.go", "(*RPCNode).Close", "collects the pending calls, then sorts them by call ID before failing any"},
	{"internal/parcore/transport.go", "(*Applier).ScanPending", "its one caller, ShardBounds, folds the visits into minima"},
	{"internal/parcore/transport.go", "(*Applier).ScanBuckets", "collects the fire times, then sorts them before visiting"},
	{"internal/fednet/dataplane.go", "(*collector).reset", "deletes every key; the result is the empty map whatever the order"},
	{"internal/fednet/fednet.go", "Scenarios", "collects the names, then sorts them"},
}

// mapOrderDirs are the packages checked, each with every package below it.
var mapOrderDirs = []string{"internal/netstack", "internal/apps", "internal/parcore", "internal/fednet", "internal/emucore"}

// modImporter type-checks this module's packages from source, on demand, and
// hands every other import to the standard library's source importer.
type modImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // by directory: what was checked
	info  *types.Info            // types of every expression checked
}

func (im *modImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "modelnet/")
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

// funcName names a declaration the way the ledger does: Name, or
// (*Recv).Name / (Recv).Name for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t, star := fd.Recv.List[0].Type, ""
	if se, ok := t.(*ast.StarExpr); ok {
		t, star = se.X, "*"
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // a generic receiver
		t = ix.X
	}
	return fmt.Sprintf("(%s%s).%s", star, t.(*ast.Ident).Name, fd.Name.Name)
}

func TestEveryMapRangeHasAReason(t *testing.T) {
	// cgo off: the standard library's pure-Go files type-check without a C
	// toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	im := &modImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Types: map[ast.Expr]types.TypeAndValue{}},
	}
	var dirs []string
	for _, root := range mapOrderDirs {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err == nil && d.IsDir() && d.Name() != "testdata" {
				dirs = append(dirs, filepath.ToSlash(path))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	type site struct{ file, fn string }
	listed := map[site]bool{}
	for _, row := range mapRangeLedger {
		listed[site{row.file, row.fn}] = true
	}
	found := map[site]bool{}
	for _, dir := range dirs {
		if _, err := im.Import("modelnet/" + dir); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		for _, f := range im.files[dir] {
			for _, decl := range f.Decls {
				fn := "package scope"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = funcName(fd)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := im.info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
						return true
					}
					pos := fset.Position(rs.Pos())
					s := site{filepath.ToSlash(pos.Filename), fn}
					found[s] = true
					if !listed[s] {
						t.Errorf("%s:%d: range over a map in %s has no row in mapRangeLedger: iterate in a fixed order, or state why the order cannot reach a send, a schedule or an error", s.file, pos.Line, s.fn)
					}
					return true
				})
			}
		}
	}
	for _, row := range mapRangeLedger {
		if !found[site{row.file, row.fn}] {
			t.Errorf("mapRangeLedger row %s %s: no range over a map there any more; delete the row", row.file, row.fn)
		}
	}
}
