package modelnet_test

// The dead-code ledger: an exported symbol that nothing calls is code every
// reader pays for and no run exercises. The test type-checks the module's
// non-test code (loader_test.go) and fails on every exported package-level
// func, method, type, var or const of the root package or of a package under
// internal/ that
//   - no non-test code of the root package, internal/, cmd/, examples/ or
//     benchmark/ refers to (its own declaration and receivers do not count),
//   - is not a method an interface appearing in that code, named or literal,
//     could call through the receiver's method set,
//   - is not a method one of the standard library's interfaces in
//     stdlibCallers could call (fmt.Stringer, error and its Unwrap,
//     http.Handler, sort and heap, the marshalers), and
//   - has no row below.
// A row names the symbol and says why it stays; a row whose symbol is gone or
// has gained a caller fails too, so the ledger stays the list of exceptions.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

var deadCodeLedger = []struct {
	pkg, name string // the symbol: its package directory, and Name or (*Recv).Name
	why       string // why it stays with no caller
	owes      string // for a symbol kept for planned work: words of the ROADMAP.md item, matched with whitespace and case folded
}{
	// The restore halves of the snapshots: ROADMAP item 3's restoring
	// checkpoint needs them, and their tests already pin them against the
	// snapshot side.
	{"internal/vtime", "(*Scheduler).Restore", "rebuilds a queue from Snapshot; TestSnapshotRestoreEquivalence pins it", restoringCheckpoint},
	{"internal/pipes", "(*Pipe).Restore", "rebuilds a pipe from Snapshot; TestPipeSnapshotRestoreEquivalence pins it", restoringCheckpoint},
	{"internal/dynamics", "AttachRestored", "re-attaches an engine from Snapshot; TestEngineSnapshotRestoreEquivalence pins it", restoringCheckpoint},

	// The root façade: programs outside this module cannot import internal/,
	// so these names are their only way to the constructors they re-export.
	{".", "NewGraph", facade, ""},
	{".", "FullMesh", facade, ""},
	{".", "TransitStub", facade, ""},
	{".", "ParseScript", facade, ""},
	{".", "TraceProfile", facade, ""},
	{".", "BundledTrace", facade, ""},
	{".", "DynamicsProfile", facade, ""},
	{".", "DynamicsStep", facade, ""},

	// Test references: a test in another package reads through them, and no
	// other handle reaches what they return.
	{"internal/emucore", "(*Emulator).Binding", "TestRerouteKeepsTheRouteCache reads each parallel shard's own route table through it", ""},
	{"internal/edge", "(*Gateway).Pending", "the gateway tests wait on it for the reader goroutine to queue real arrivals; no counter says so", ""},
	{"internal/obs", "DecodeCanonical", "the cross-mode trace checks decode two diverging canonical traces with it to name the first differing event", ""},
	{"internal/bind", "(*POD).Crossings", "the §3.3 crossing count: assign's k-clusters-against-even check counts with it", ""},
	{"internal/bind", "(*Cache).Len", "TestRingSetUpComputesNoRouteAllocs and TestRerouteKeepsTheRouteCache count the cached routes through it", ""},
	{"internal/pipes", "(*PacketPool).Len", "TestPacketDescriptorsRecycleOnDrop (emucore) reads the free-list length through it", ""},

	// The socket and scheduler API's halves that only tests drive; each is
	// the behaviour its test checks.
	{"internal/netstack", "(*Conn).Write", "the real-bytes write: TestTCPDataIntegrity and TestTCPReliabilityProperty carry payload bytes through it", ""},
	{"internal/netstack", "(*Listener).Close", "closing a listener refuses the next connection: TestListenerClose", ""},
	{"internal/netstack", "(*RPCNode).Close", "fails pending calls in call-ID order: TestRPCCloseFailsPendingInCallOrder", ""},
	{"internal/vtime", "(*Scheduler).Stop", "halts a run after the current event (TestStop, the scheduler fuzz model's stop sequences); deleting it edits RunUntil's per-event loop, a hop-path change that needs its own paired measurement", ""},
}

const (
	restoringCheckpoint = "checkpoints that restore"
	facade              = "root façade: the one way a program outside this module reaches the internal constructor it re-exports"
)

// stdlibCallers spells out, as interfaces, the methods the standard library
// calls on a value it is handed without the checked code naming them.
const stdlibCallers = `package stdlib

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

var (
	_ fmt.Stringer
	_ error
	_ interface{ Unwrap() error } // errors.Is and errors.As
	_ http.Handler
	_ sort.Interface
	_ heap.Interface
	_ json.Marshaler
	_ encoding.TextMarshaler
)
`

func TestEveryExportedSymbolHasACaller(t *testing.T) {
	m := loadModule(t)

	// The declarations checked, and what each is called in the ledger.
	type symbol struct{ pkg, name string }
	decl := map[types.Object]ast.Node{}
	names := map[types.Object]symbol{}
	receivers := map[*ast.Ident]bool{} // a receiver's type name is no use of the type
	for _, dir := range m.dirs {
		inScope := ledgered(dir)
		for _, f := range m.files[dir] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					if inScope && d.Name.IsExported() {
						obj := m.info.Defs[d.Name]
						decl[obj], names[obj] = d, symbol{dir, funcName(d)}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var ids []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							ids = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							ids = s.Names
						}
						for _, id := range ids {
							if inScope && id.IsExported() {
								obj := m.info.Defs[id]
								decl[obj], names[obj] = spec, symbol{dir, id.Name}
							}
						}
					}
				}
			}
		}
	}

	// What the checked code refers to, outside each symbol's own declaration
	// (Uses records the selected field or method of every selector too).
	used := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		obj = origin(obj)
		if d := decl[obj]; !receivers[id] && (d == nil || id.Pos() < d.Pos() || id.Pos() >= d.End()) {
			used[obj] = true
		}
	}

	// The interfaces the checked code names or spells out, and the standard
	// library's.
	f, err := parser.ParseFile(m.fset, "stdlib.go", stdlibCallers, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdlib := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: m}).Check("stdlib", m.fset, []*ast.File{f}, stdlib); err != nil {
		t.Fatal(err)
	}
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	for _, info := range []*types.Info{m.info, stdlib} {
		for _, tv := range info.Types {
			if i, ok := tv.Type.Underlying().(*types.Interface); ok && i.NumMethods() > 0 && !seen[tv.Type] {
				seen[tv.Type] = true
				ifaces = append(ifaces, i)
			}
		}
	}
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, i := range ifaces {
			for k := 0; k < i.NumMethods(); k++ {
				if i.Method(k).Name() == fn.Name() &&
					(types.Implements(recv, i) || types.Implements(types.NewPointer(recv), i)) {
					return true
				}
			}
		}
		return false
	}
	called := func(obj types.Object) bool {
		if used[obj] {
			return true
		}
		fn, ok := obj.(*types.Func)
		return ok && fn.Type().(*types.Signature).Recv() != nil && viaInterface(fn)
	}

	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	items := strings.ToLower(fold(string(roadmap)))
	rows := map[symbol]bool{}
	for _, row := range deadCodeLedger {
		rows[symbol{row.pkg, row.name}] = true
		if row.owes != "" && !strings.Contains(items, strings.ToLower(fold(row.owes))) {
			t.Errorf("deadCodeLedger row %s %s: ROADMAP.md no longer contains %q; delete the symbol, or point the row at the item that needs it", row.pkg, row.name, row.owes)
		}
	}
	var errs []string
	checked := map[symbol]bool{}
	for obj, s := range names {
		checked[s] = true
		switch {
		case called(obj) && rows[s]:
			errs = append(errs, fmt.Sprintf("deadCodeLedger row %s %s: it has a caller now; delete the row", s.pkg, s.name))
		case !called(obj) && !rows[s]:
			errs = append(errs, fmt.Sprintf("%s: exported %s %s has no caller and no row in deadCodeLedger: delete it, or state why it stays",
				m.fset.Position(obj.Pos()), s.pkg, s.name))
		}
	}
	for _, row := range deadCodeLedger {
		if !checked[symbol{row.pkg, row.name}] {
			errs = append(errs, fmt.Sprintf("deadCodeLedger row %s %s: no such exported symbol any more; delete the row", row.pkg, row.name))
		}
	}
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}

// origin is the generic declaration behind an instantiated func or field.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
