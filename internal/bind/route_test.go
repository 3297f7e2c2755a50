package bind

import (
	"strings"
	"testing"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

func attrs(lat float64) topology.LinkAttrs {
	return topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: lat, QueuePkts: 10}
}

// diamond builds a 4-node graph where the top path is faster.
func diamond() (*topology.Graph, []topology.NodeID) {
	g := topology.New()
	a := g.AddNode(topology.Client, "a")
	top := g.AddNode(topology.Stub, "top")
	bot := g.AddNode(topology.Stub, "bot")
	b := g.AddNode(topology.Client, "b")
	g.AddDuplex(a, top, attrs(0.001))
	g.AddDuplex(top, b, attrs(0.001))
	g.AddDuplex(a, bot, attrs(0.010))
	g.AddDuplex(bot, b, attrs(0.010))
	return g, []topology.NodeID{a, b}
}

// TestShortestPathsPicksFastRoute: the engine's distance field prices the
// diamond by its fast side, and the walk rides it.
func TestShortestPathsPicksFastRoute(t *testing.T) {
	g, homes := diamond()
	e := newEngine(g, fullView(g), nil, 1)
	dist, err := e.compute(nil, 0, homes[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.at(dist, homes[0]), (Dist{Lat: 2 * vtime.Millisecond, Hops: 2}); got != want {
		t.Errorf("dist = %+v, want %+v", got, want)
	}
	r, ok := e.walk(homes[0], homes[1], dist, nil)
	if !ok || len(r) != 2 {
		t.Fatalf("route %v ok=%v, want 2 hops", r, ok)
	}
	// Both hops must ride the fast (top) path: links a->top and top->b.
	for _, pid := range r {
		if g.Links[pid].Attr.LatencySec != 0.001 {
			t.Errorf("route used slow link %d", pid)
		}
	}
}

func TestMatrixLookup(t *testing.T) {
	g, homes := diamond()
	m, err := BuildMatrix(g, homes)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVNs() != 2 {
		t.Fatalf("NumVNs = %d", m.NumVNs())
	}
	r, ok := m.Lookup(0, 1)
	if !ok || len(r) != 2 {
		t.Fatalf("Lookup(0,1) = %v, %v", r, ok)
	}
	// Route continuity: consecutive pipes share a node.
	for i := 1; i < len(r); i++ {
		if g.Links[r[i-1]].Dst != g.Links[r[i]].Src {
			t.Errorf("route not continuous at hop %d", i)
		}
	}
	// Self route is empty but ok.
	if r, ok := m.Lookup(1, 1); !ok || len(r) != 0 {
		t.Errorf("self lookup = %v,%v", r, ok)
	}
	// Out of range.
	if _, ok := m.Lookup(0, 99); ok {
		t.Error("bogus VN lookup succeeded")
	}
}

// TestMatrixLookupContract pins what a span table must keep meaning: a span
// of length 0 is the empty route of two VNs on one home (or of a VN to
// itself), never "unreachable" — a matrix with an unreachable pair does not
// build — and ok is false only for VNs the matrix does not have.
func TestMatrixLookupContract(t *testing.T) {
	g, homes := diamond()
	m, err := BuildMatrix(g, []topology.NodeID{homes[0], homes[1], homes[0]}) // VNs 0 and 2 share a home
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src, dst pipes.VN
		hops     int
		ok       bool
	}{
		{0, 1, 2, true}, {1, 0, 2, true}, {2, 1, 2, true}, {1, 2, 2, true},
		{0, 0, 0, true}, {1, 1, 0, true},
		{0, 2, 0, true}, {2, 0, 0, true},
		{0, 3, 0, false}, {3, 0, 0, false}, {-1, 0, 0, false}, {0, -1, 0, false},
	} {
		r, ok := m.Lookup(c.src, c.dst)
		if ok != c.ok || len(r) != c.hops || (!ok && r != nil) {
			t.Errorf("Lookup(%d,%d) = %v, %v; want %d hops, ok=%v", c.src, c.dst, r, ok, c.hops, c.ok)
		}
		if len(r) > 0 && (g.Links[r[0]].Src != homes[c.src%2] || g.Links[r[len(r)-1]].Dst != homes[c.dst%2]) {
			t.Errorf("Lookup(%d,%d) = %v does not join the two homes", c.src, c.dst, r)
		}
	}
}

// TestMatrixArenaBound: span offsets are 32 bits, so a build whose arena
// would pass 2^32 hops must fail, pointing at NewCache, and never wrap.
func TestMatrixArenaBound(t *testing.T) {
	if err := arenaRoom(1<<32-11, 10, 70000); err != nil {
		t.Errorf("an arena of 2^32-1 hops refused: %v", err)
	}
	for _, c := range [][2]int{{1<<32 - 10, 10}, {0, 1 << 32}, {1 << 33, 1}} {
		if err := arenaRoom(c[0], c[1], 70000); err == nil || !strings.Contains(err.Error(), "NewCache") {
			t.Errorf("arenaRoom(%d, %d) = %v, want an error naming NewCache", c[0], c[1], err)
		}
	}
}

func TestMatrixUnreachable(t *testing.T) {
	g := topology.New()
	a := g.AddNode(topology.Client, "a")
	b := g.AddNode(topology.Client, "b")
	s1 := g.AddNode(topology.Stub, "s1")
	s2 := g.AddNode(topology.Stub, "s2")
	g.AddDuplex(a, s1, attrs(0.001))
	g.AddDuplex(b, s2, attrs(0.001))
	if _, err := BuildMatrix(g, []topology.NodeID{a, b}); err == nil {
		t.Error("disconnected matrix built without error")
	}
}

func TestCacheMatchesMatrix(t *testing.T) {
	g := topology.Ring(6, 3, attrs(0.005), attrs(0.001))
	homes := g.Clients()
	m, err := BuildMatrix(g, homes)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(g, homes, 64)
	for i := 0; i < len(homes); i++ {
		for j := 0; j < len(homes); j++ {
			rm, okm := m.Lookup(pipes.VN(i), pipes.VN(j))
			rc, okc := c.Lookup(pipes.VN(i), pipes.VN(j))
			if okm != okc || len(rm) != len(rc) {
				t.Fatalf("cache/matrix disagree for (%d,%d): %v/%v", i, j, rm, rc)
			}
			for k := range rm {
				if rm[k] != rc[k] {
					t.Fatalf("route mismatch at (%d,%d)[%d]", i, j, k)
				}
			}
		}
	}
}

func TestCacheEviction(t *testing.T) {
	g := topology.Ring(4, 4, attrs(0.005), attrs(0.001))
	homes := g.Clients()
	c := NewCache(g, homes, 8)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i != j {
				c.Lookup(pipes.VN(i), pipes.VN(j))
			}
		}
	}
	if c.Len() > 8 || c.Cap() != 8 {
		t.Errorf("cache grew to %d, cap %d, want ≤ 8 of 8", c.Len(), c.Cap())
	}
	if d := NewCache(g, homes, 0); d.Cap() != DefaultRouteCache {
		t.Errorf("a cache of no stated capacity holds %d routes, want DefaultRouteCache (%d)", d.Cap(), DefaultRouteCache)
	}
	if c.Misses == 0 || c.Hits != 0 {
		t.Errorf("hits=%d misses=%d; scan workload should all miss", c.Hits, c.Misses)
	}
	// Repeated lookups of a working set smaller than capacity should hit.
	c.Reroute(nil)
	c.Hits, c.Misses = 0, 0
	for rep := 0; rep < 10; rep++ {
		for j := 1; j < 5; j++ {
			c.Lookup(0, pipes.VN(j))
		}
	}
	if c.Hits != 36 || c.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 36/4", c.Hits, c.Misses)
	}
}

func TestBindDefaults(t *testing.T) {
	g := topology.Star(10, attrs(0.001))
	b, err := Bind(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumVNs() != 10 {
		t.Fatalf("VNs = %d", b.NumVNs())
	}
	// One edge per VN, all on core 0.
	for v := 0; v < 10; v++ {
		if b.EdgeOf[v] != v {
			t.Errorf("EdgeOf[%d] = %d", v, b.EdgeOf[v])
		}
	}
	for _, c := range b.CoreOf {
		if c != 0 {
			t.Errorf("core = %d, want 0", c)
		}
	}
	if _, ok := b.Table.Lookup(0, 9); !ok {
		t.Error("route lookup failed")
	}
}

func TestBindMultiplexing(t *testing.T) {
	g := topology.Star(12, attrs(0.001))
	b, err := Bind(g, Options{EdgeNodes: 3, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, e := range b.EdgeOf {
		counts[e]++
	}
	for e := 0; e < 3; e++ {
		if counts[e] != 4 {
			t.Errorf("edge %d hosts %d VNs, want 4", e, counts[e])
		}
	}
	if b.CoreOf[0] != 0 || b.CoreOf[1] != 1 || b.CoreOf[2] != 0 {
		t.Errorf("CoreOf = %v", b.CoreOf)
	}
}

func TestBindNoClients(t *testing.T) {
	g := topology.New()
	g.AddNode(topology.Stub, "s")
	if _, err := Bind(g, Options{}); err == nil {
		t.Error("bind with no clients should fail")
	}
}

func TestVNOfNodeInverse(t *testing.T) {
	g := topology.Ring(3, 2, attrs(0.005), attrs(0.001))
	b, err := Bind(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, home := range b.VNHome {
		if b.VNOfNode[home] != pipes.VN(v) {
			t.Errorf("VNOfNode[%d] = %d, want %d", home, b.VNOfNode[home], v)
		}
	}
	for nid, vn := range b.VNOfNode {
		if vn == -1 && g.Nodes[nid].Kind == topology.Client {
			t.Errorf("client node %d has no VN", nid)
		}
	}
}

func TestPODCrossings(t *testing.T) {
	owner := []int{0, 0, 1, 1, 0}
	d := NewPOD(owner, 2)
	if d.Owner(2) != 1 || d.Owner(0) != 0 {
		t.Fatal("owner lookup wrong")
	}
	// Route through pipes 0,1 (core 0), 2,3 (core 1), 4 (core 0):
	// ingress at core 0 -> crossings at pipe 2 and pipe 4.
	r := Route{0, 1, 2, 3, 4}
	if got := d.Crossings(0, r); got != 2 {
		t.Errorf("crossings = %d, want 2", got)
	}
	// Ingress at core 1: cross to 0 at pipe 0, to 1 at pipe 2, to 0 at pipe 4.
	if got := d.Crossings(1, r); got != 3 {
		t.Errorf("crossings = %d, want 3", got)
	}
}
