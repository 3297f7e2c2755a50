package modelnet_test

// The bounds ledger (ROADMAP aim 3: "every log, cache and queue has a
// stated, tested bound"). One row per pool, cache, queue and log in the
// tree: where it is declared, the bound it states, and the test that holds
// it there. The test checks the ledger against the source — the declaration
// is still in that file, the named test still exists in that package — and
// that no free list or bounded cache has been added without a row. The two
// rows with no bound say so, and point at the roadmap item that owes one.
// ROADMAP.md is rewritten at each re-anchor, so a pointer is matched on its
// words regardless of line breaks, indentation and capitalisation; a
// declaration is matched regardless of gofmt's column padding, but not case.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var boundsLedger = []struct {
	what  string // the structure
	file  string // where it is declared
	decl  string // a fragment of the declaring line, verbatim up to whitespace runs
	bound string // the stated bound; "" = none yet
	test  string // the test, in the declaring package, that checks the bound
	owes  string // with no bound: words of the ROADMAP.md item that owes one, matched with whitespace and case folded
}{
	{"netstack Segment free list, per event loop", "internal/netstack/netstack.go", "segs   freeList[Segment]",
		"≤ maxSegFree (65 536) parked", "TestSegmentPoolBounded", ""},
	{"netstack Datagram free list, per event loop", "internal/netstack/netstack.go", "dgrams freeList[Datagram]",
		"≤ maxSegFree (65 536) parked", "TestDatagramPoolBounded", ""},
	{"netstack RPC frame free list, per event loop", "internal/netstack/netstack.go", "frames freeList[rpcFrame]",
		"≤ maxSegFree (65 536) parked", "TestDatagramPoolBounded", ""},
	{"the free list behind all three", "internal/netstack/netstack.go", "free []*T",
		"put drops past maxSegFree", "TestDatagramPoolBounded", ""},
	{"pipes.PacketPool descriptors, per emulator", "internal/pipes/pool.go", "free []*Packet",
		"≤ maxPoolFree (65 536) parked", "TestPacketPoolBounded", ""},
	{"vtime event records, per scheduler", "internal/vtime/vtime.go", "free    []*event",
		"pending + parked ≤ peak pending", "TestFreeListBoundedByPeakPending", ""},
	{"bind.lru table (every bounded cache in bind)", "internal/bind/lru.go", "type lru[V any] struct",
		"entries ≤ capacity; slots ≤ 2·max(8, entries rounded up to a power of two)", "TestLRUEvictsRecencyListTail", ""},
	{"bind.Cache routes", "internal/bind/route.go", "newLRU[Route](capacity)",
		"≤ RouteCache routes, or DefaultRouteCache (65 536) when 0; a shard's, 16 per field", "TestCacheEviction", ""},
	{"bind.Cache reroute epochs", "internal/bind/route.go", "downs   []linkSet",
		"preloaded: the schedule, ≤ MaxRerouteEpochs+1 down sets (EnumerateReroutes refuses more); without one: exactly 1, the current epoch's", "TestCacheEpochStore", ""},
	{"bind engine distance fields", "internal/bind/engine.go", "newLRU[[]cell](fieldCap)",
		"≤ fieldCap fields (default defaultFieldCap, 4096; NewCache's capacity/16, at least 4), the lru's capacity", "TestLRUEvictsRecencyListTail", ""},
	{"bind.SummaryOracle down sets", "internal/bind/shard.go", "newLRU[linkSet](epochCap)",
		"≤ epochCap epochs (default 4), the lru's capacity", "TestLRUEvictsRecencyListTail", ""},
	{"bind.GatewayTable dynamic VN pool", "internal/bind/gateway.go", "free  []pipes.VN",
		"the declared pool; exhausted, a claim evicts the LRU binding", "TestGatewayTableEvictsLRU", ""},
	{"pipes.Pipe transmission queue", "internal/pipes/pipe.go", "QueuePkts    int",
		"≤ QueuePkts backlogged (default 50); the next packet is a backlog drop", "TestPipeOverflow", ""},

	{"fednet coordinator round log (-recover)", "internal/fednet/recovery.go", "cmdLog []loggedRound",
		"", "", "`cmdLog` keeps every round since t=0"},
	{"fednet worker send log (-recover)", "internal/fednet/dataplane.go", "sendLog   *workerRecovery",
		"", "", "each worker's `sendLog`"},
}

// recycler matches the declarations that make a structure a ledger entry:
// a free list field, or a cache built on bind's one bounded table.
var recycler = regexp.MustCompile(`\bfree\s+\[\]|newLRU\[[^V]`)

// fold collapses every run of whitespace, line breaks included, to one space.
func fold(s string) string { return strings.Join(strings.Fields(s), " ") }

// declares reports whether line, whitespace folded, holds decl.
func declares(line, decl string) bool { return strings.Contains(fold(line), fold(decl)) }

func TestEveryPoolCacheAndQueueHasAStatedBound(t *testing.T) {
	src := map[string]string{}
	read := func(path string) string {
		if s, ok := src[path]; ok {
			return s
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src[path] = string(b)
		return src[path]
	}
	roadmap := strings.ToLower(fold(read("ROADMAP.md")))
	for _, row := range boundsLedger {
		declared := false
		for _, line := range strings.Split(read(row.file), "\n") {
			declared = declared || declares(line, row.decl)
		}
		if !declared {
			t.Errorf("%s: %s no longer declares %q", row.what, row.file, row.decl)
		}
		if row.bound == "" {
			// Unbounded, and known to be: ROADMAP's open item 3 owns it.
			if !strings.Contains(roadmap, strings.ToLower(fold(row.owes))) {
				t.Errorf("%s has no bound and ROADMAP.md no longer contains %q, compared with whitespace and case folded: bound it and name the test here, or restore the pointer", row.what, row.owes)
			}
			continue
		}
		pkg := filepath.Dir(row.file)
		tests, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range tests {
			found = found || strings.Contains(read(f), "func "+row.test+"(t *testing.T)")
		}
		if !found {
			t.Errorf("%s: bound %q is checked by %s.%s, which does not exist", row.what, row.bound, pkg, row.test)
		}
	}

	// Completeness: a free list or an lru-backed cache anywhere in the tree
	// is a row above.
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		for _, line := range strings.Split(read(path), "\n") {
			if !recycler.MatchString(line) {
				continue
			}
			listed := false
			for _, row := range boundsLedger {
				listed = listed || filepath.ToSlash(path) == row.file && declares(line, row.decl)
			}
			if !listed {
				t.Errorf("%s: %q recycles or caches and has no row in boundsLedger: state its bound and the test that checks it", path, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
