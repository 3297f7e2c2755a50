package modelnet_test

// The map-order ledger: Go randomizes map iteration order, so a `range` over
// a map whose order reaches a send, a scheduled event or an error makes a
// run differ from itself (RPCNode.Close once failed its pending calls that
// way). The test type-checks the non-test code of the root package and of
// every package under internal/ (loader_test.go) and fails on every range
// over a map that has no row below; a row names the site and says why its
// order cannot matter. A row whose site is gone fails too, so the ledger
// stays the list of sites.

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
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
	{"internal/bind/gateway.go", "(*GatewayTable).lruVictim", "a minimum under a total order (lastSeen, then VN): one victim whatever the order"},
	{"internal/dynamics/dynamics.go", "(*Engine).downList", "collects the down links, then sorts them"},
	{"internal/obs/metrics.go", "(*Metrics).ServeHTTP", "collects the metric names, then sorts them"},
	{"internal/routing/dv.go", "(*DV).SetLinkDown", "poisons each entry through the link on its own; no entry reads another"},
	{"internal/routing/dv.go", "(*DV).expireStale", "poisons each stale entry on its own; no entry reads another"},
	{"internal/routing/dv.go", "(*DV).advertise", "copies the table into a map: the same vector whatever the order"},
	{"internal/routing/dv.go", "(*DV).receive", "merges each destination on its own; the only summary, changed, is an OR"},
	{"internal/traffic/faults.go", "FailLinks", "kills each link's pipe on its own, then reroutes around the set of links, which has no order"},
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
	switch ix := t.(type) { // a generic receiver
	case *ast.IndexExpr:
		t = ix.X
	case *ast.IndexListExpr:
		t = ix.X
	}
	return fmt.Sprintf("(%s%s).%s", star, t.(*ast.Ident).Name, fd.Name.Name)
}

func TestEveryMapRangeHasAReason(t *testing.T) {
	m := loadModule(t)
	type site struct{ file, fn string }
	listed := map[site]bool{}
	for _, row := range mapRangeLedger {
		listed[site{row.file, row.fn}] = true
	}
	found := map[site]bool{}
	for _, dir := range m.dirs {
		if !ledgered(dir) {
			continue
		}
		for _, f := range m.files[dir] {
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
					if _, isMap := m.info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
						return true
					}
					pos := m.fset.Position(rs.Pos())
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
