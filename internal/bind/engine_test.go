package bind

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

// ring is the ring-seq benchmark topology: 20 routers, 20 VNs each.
func ring() *topology.Graph {
	return topology.Ring(20, 20,
		topology.LinkAttrs{BandwidthBps: 20e6, LatencySec: 0.005, QueuePkts: 30},
		topology.LinkAttrs{BandwidthBps: 2e6, LatencySec: 0.001, QueuePkts: 20})
}

// TestLookupAllocs gates what a route costs the allocator: nothing on the
// paths a packet takes (a Matrix lookup, a Cache hit over the whole graph or
// over a shard's view — a worker's warm lookup), the exact-size route
// and nothing else for a walk over a cached field — which, once warm, reads
// its next hops out of the field's memo and scans nothing, and which serves
// every leaf behind the field's router — and for a distance field the field
// itself, memo included — whatever the node count, since the frontier heap
// and the walk buffer are the engine's own scratch.
func TestLookupAllocs(t *testing.T) {
	g := ring()
	homes := g.Clients()
	m, err := BuildMatrix(g, homes)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(g, homes, 64)
	c.Lookup(3, 250)
	var sink int
	if n := testing.AllocsPerRun(200, func() {
		r, _ := m.Lookup(3, 250)
		sink += len(r)
	}); n != 0 {
		t.Errorf("Matrix.Lookup: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		r, _ := c.Lookup(3, 250)
		sink += len(r)
	}); n != 0 {
		t.Errorf("Cache hit: %v allocs, want 0", n)
	}
	sc := ringShardCache(t, nil)
	sc.Lookup(3, 250)
	if n := testing.AllocsPerRun(200, func() {
		r, _ := sc.Lookup(3, 250)
		sink += len(r)
	}); n != 0 || sc.Misses != 1 {
		t.Errorf("shard-view Cache hit: %v allocs over %d misses, want 0 over 1", n, sc.Misses)
	}

	for _, g := range []*topology.Graph{g, topology.Ring(40, 40, attrs(0.005), attrs(0.001))} {
		homes := g.Clients()
		from, to := homes[3], homes[len(homes)/2]
		e := newEngine(g, fullView(g), nil, 1)
		e.route(nil, from, to, 0, nil)
		scans := e.Scans
		if n := testing.AllocsPerRun(50, func() {
			r, _, _ := e.route(nil, from, to, 0, nil)
			sink += len(r)
		}); n != 1 {
			t.Errorf("%d nodes: warm route walk: %v allocs, want 1 (the route)", g.NumNodes(), n)
		}
		if e.Scans != scans || e.Misses != 1 {
			t.Errorf("%d nodes: warm walks scanned %d out-links over %d fields, want 0 more over the 1", g.NumNodes(), e.Scans-scans, e.Misses)
		}
		// The field is the router's: the leaf next door costs its route, cut
		// to size, and no second field.
		spare := 0
		if n := testing.AllocsPerRun(50, func() {
			r, _, _ := e.route(nil, from, to+1, 0, nil)
			spare += cap(r) - len(r)
		}); n != 1 || e.Misses != 1 || spare != 0 {
			t.Errorf("%d nodes: a second leaf behind the same router: %v allocs, %d fields, %d spare hops; want 1 (the exact-size route), 1, 0", g.NumNodes(), n, e.Misses, spare)
		}
		if n := testing.AllocsPerRun(10, func() {
			f, _ := e.compute(nil, 0, to, nil)
			sink += len(f)
		}); n != 1 {
			t.Errorf("%d nodes: distance field: %v allocs, want 1 (the field)", g.NumNodes(), n)
		}
	}
}

// TestBuildMatrixAllocsAndScans gates the matrix build by counts that repeat
// exactly on any host. The ring's VNs are leaves, twenty behind each router,
// so the build computes one field per router, not per VN; every walk toward
// one key shares the field's next-hop memo, so each node's out-links are
// evaluated at most once per key; and the routes go into one span table over
// one arena beside one reused scratch field, so the allocations are the same
// few whether a router has twenty VNs behind it or eighty.
func TestBuildMatrixAllocsAndScans(t *testing.T) {
	for _, perRouter := range []int{20, 80} {
		g := topology.Ring(20, perRouter, attrs(0.005), attrs(0.001))
		homes := g.Clients()
		e := newEngine(g, fullView(g), nil, 1)
		if _, err := e.matrix(homes); err != nil {
			t.Fatal(err)
		}
		const keys = 20
		if limit := uint64(keys * g.NumLinks()); e.Scans == 0 || e.Scans > limit {
			t.Errorf("%d VNs: matrix build evaluated %d out-links, want 1..%d (keys x links)", len(homes), e.Scans, limit)
		}
		if e.Misses != keys {
			t.Errorf("%d VNs: matrix build computed %d fields, want %d (one per router)", len(homes), e.Misses, keys)
		}
		var sink int
		if n := testing.AllocsPerRun(2, func() {
			m, _ := BuildMatrix(g, homes)
			sink += m.NumVNs()
		}); n > 32 {
			t.Errorf("BuildMatrix: %v allocs for %d VNs, want <= 32 however many VNs", n, len(homes))
		}
	}
}

// TestFieldIndependentOfPopOrder: a distance field is the policy's unique
// fixed point, so neither the order links are relaxed and pushed in nor the
// order equal keys pop in may show in it. Shuffle the view's link list (push
// order) and break heap ties both ways (pop order); every field must equal
// the plain engine's.
func TestFieldIndependentOfPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := topology.New() // 40 routers: a random spanning tree plus 20 random duplex links
	for i := 0; i < 40; i++ {
		g.AddNode(topology.Stub, fmt.Sprintf("n%d", i))
	}
	perm := rng.Perm(40)
	for i := 1; i < 40; i++ {
		g.AddDuplex(topology.NodeID(perm[i]), topology.NodeID(perm[rng.Intn(i)]), attrs(0.001))
	}
	for e := 0; e < 20; e++ {
		if a, b := topology.NodeID(rng.Intn(40)), topology.NodeID(rng.Intn(40)); a != b {
			g.AddDuplex(a, b, attrs(0.001))
		}
	}
	for i := range g.Links {
		g.Links[i].Attr.LatencySec = float64(rng.Intn(3)) * 1e-3 // ties and zero-latency links
	}
	want := map[topology.NodeID][]cell{}
	plain := newEngine(g, fullView(g), nil, 1)
	for n := 0; n < g.NumNodes(); n++ {
		want[topology.NodeID(n)], _ = plain.compute(nil, 0, topology.NodeID(n), nil)
	}
	tieBreaks := []func(a, b distItem) bool{
		func(a, b distItem) bool { return a.node < b.node },
		func(a, b distItem) bool { return a.node > b.node },
	}
	for trial := 0; trial < 6; trial++ {
		view := fullView(g)
		view.Links = append([]topology.Link(nil), g.Links...)
		rng.Shuffle(len(view.Links), func(i, j int) { view.Links[i], view.Links[j] = view.Links[j], view.Links[i] })
		e := newEngine(g, view, nil, 1)
		tie := tieBreaks[trial%2]
		e.frontier.Less = func(a, b distItem) bool {
			if a.d != b.d {
				return a.d.Less(b.d)
			}
			return tie(a, b)
		}
		for n, w := range want {
			got, _ := e.compute(nil, 0, n, nil)
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("trial %d: field toward node %d depends on push/pop order", trial, n)
			}
		}
	}
}

var benchSink int

// BenchmarkBuildMatrix prices the offline matrix over the benchmark's 400-VN
// ring — 20 distance fields (one per router; the VNs are leaves), 8 000 walks
// that read their hops out of the memo, and 159 600 copies of a walked
// segment plus an access pipe.
func BenchmarkBuildMatrix(b *testing.B) { benchBuildMatrix(b, ring()) }

// BenchmarkBuildMatrixMesh prices the build that collapses nothing: the same
// ring with every VN homed on its router and the next, so each has two
// in-links, is its own key, and the build is 400 fields and 159 600 walks.
func BenchmarkBuildMatrixMesh(b *testing.B) {
	g := ring()
	for _, c := range g.Clients() {
		router := g.Links[g.Out(c)[0]].Dst
		g.AddDuplex(c, (router+1)%20, g.Links[g.Out(c)[0]].Attr)
	}
	e := newEngine(g, fullView(g), nil, 1)
	if _, err := e.matrix(g.Clients()); err != nil || e.Misses != 400 {
		b.Fatalf("test premise: %d fields for the 400 VNs, want one each (err %v)", e.Misses, err)
	}
	benchBuildMatrix(b, g)
}

func benchBuildMatrix(b *testing.B, g *topology.Graph) {
	homes := g.Clients()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := BuildMatrix(g, homes)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += m.NumVNs()
	}
}

// ringShardCache is ring-fed2's shard 0: the Cache of one half of the ring,
// routers 0-9 and their VNs 0..199, seeded in process by a whole-graph oracle
// that reads epoch e's down set at sets[e].
func ringShardCache(tb testing.TB, sets [][]topology.LinkID) *Cache {
	tb.Helper()
	g := ring()
	// Node IDs are routers first, then each router's VNs in turn.
	nodeOwner := make([]int, g.NumNodes())
	for n := range nodeOwner {
		router := n
		if n >= 20 {
			router = (n - 20) / 20
		}
		nodeOwner[n] = router / 10
	}
	owner := make([]int, g.NumLinks())
	for _, l := range g.Links {
		owner[l.ID] = nodeOwner[l.Src]
	}
	views, err := BuildShardViews(g, owner, nodeOwner, 2)
	if err != nil {
		tb.Fatal(err)
	}
	oracle := NewSummaryOracle(g, func(e int32) ([]topology.LinkID, error) { return sets[e], nil }, 0, 0)
	c, err := NewShardTable(g, views[0], g.Clients(), oracle.SeedFuncFor(views[0].Summary), 0)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkCacheHitShardView prices what a federated worker pays per injected
// packet (ring-fed2) once its route is cached: a route-LRU hit on one half of
// the ring, the segment up to the first foreign pipe.
func BenchmarkCacheHitShardView(b *testing.B) {
	c := ringShardCache(b, nil)
	n := c.NumVNs()
	local := n / 2 // VNs 0..199 are homed on shard 0
	lookup := func(i int) {
		r, _ := c.Lookup(pipes.VN(i%local), pipes.VN((i*7+13)%n))
		benchSink += len(r)
	}
	for i := 0; i < n; i++ { // the pair sequence repeats every n
		lookup(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(i)
	}
}

// BenchmarkDistField prices one reverse Dijkstra over the same ring — what a
// Cache miss pays before it walks.
func BenchmarkDistField(b *testing.B) {
	g := ring()
	homes := g.Clients()
	e := newEngine(g, fullView(g), nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist, err := e.compute(nil, 0, homes[i%len(homes)], nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(dist)
	}
}

// BenchmarkCacheMiss prices a lookup that misses both LRUs (field + walk).
func BenchmarkCacheMiss(b *testing.B) {
	g := ring()
	homes := g.Clients()
	c := NewCache(g, homes, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := c.Lookup(pipes.VN(i%len(homes)), pipes.VN((i*7+13)%len(homes)))
		benchSink += len(r)
	}
}

// fig4Cache is fig4-tcp-seq's route cache once every flow has sent and been
// acknowledged: 120 private pairs, a route each way, in a cache of capacity
// 960. VN 2i sends to VN 2i+1; route r of the 240 is (r, r^1).
func fig4Cache(tb testing.TB, g *topology.Graph) *Cache {
	tb.Helper()
	c := NewCache(g, g.Clients(), 960)
	if c.routes.slots != nil || c.fields.slots != nil {
		tb.Fatal("NewCache allocated a table before the first route")
	}
	for r := 0; r < 240; r++ {
		if _, ok := c.Lookup(pipes.VN(r), pipes.VN(r^1)); !ok {
			tb.Fatalf("no route %d -> %d", r, r^1)
		}
	}
	return c
}

func fig4Graph() *topology.Graph { return topology.Pairs(120, 1, attrs(0.01)) }

// TestCacheHitAllocs gates the route cache's table: a hit allocates nothing
// whichever route the last one was; the table is sized by the 240 routes it
// holds, not by its capacity; and a miss allocates its field and its route
// and, amortized, nothing else — filling the cache grows each of the two
// tables a handful of times, whatever the capacity.
func TestCacheHitAllocs(t *testing.T) {
	g := fig4Graph()
	var c *Cache
	fill := testing.AllocsPerRun(1, func() { c = fig4Cache(t, g) })
	if c.Misses != 240 || c.engine.Misses != 240 || c.Len() != 240 {
		t.Fatalf("test premise: %d misses, %d fields, %d routes cached, want 240 each", c.Misses, c.engine.Misses, c.Len())
	}
	// 480 for the fields and routes; the rest (33 when written) builds the
	// engine's index and its scratch and doubles the route table seven times
	// (8 → 512 slots) and the 60-field table five.
	if fill > 480+48 {
		t.Errorf("building and filling the cache: %.0f allocs, want 480 (a field and a route per miss) plus at most 48", fill)
	}
	if got := len(c.routes.slots); got != 512 {
		t.Errorf("240 routes of capacity 960 sit in %d slots, want 512", got)
	}
	r, sink := 0, 0
	if n := testing.AllocsPerRun(1000, func() {
		route, _ := c.Lookup(pipes.VN(r), pipes.VN(r^1))
		sink += len(route)
		r = (r + 1) % 240
	}); n != 0 {
		t.Errorf("Cache hit, routes taking turns: %v allocs, want 0", n)
	}
	if c.Misses != 240 || sink != 1001 {
		t.Errorf("the hits missed: %d misses, %d hops returned over 1001 lookups", c.Misses, sink)
	}
}

// BenchmarkCacheHitInterleaved prices a route-cache hit as fig4-tcp-seq pays
// it: 240 live routes visited round-robin, so each probe lands on a slot
// last touched 240 lookups ago (a hit on the same key over and over is
// about half the price).
func BenchmarkCacheHitInterleaved(b *testing.B) {
	c := fig4Cache(b, fig4Graph())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % 240
		route, _ := c.Lookup(pipes.VN(r), pipes.VN(r^1))
		benchSink += len(route)
	}
	if c.Misses != 240 {
		b.Fatalf("%d misses, want the 240 of the fill", c.Misses)
	}
}

// TestCacheEpochStore holds a Cache's epoch store to its bound. Without a
// schedule it keeps one down set, the current epoch's, and each reroute drops
// every route and field. With one (Preload) it keeps the preloaded sets and
// nothing more, however many reroutes fire — dynamics.EnumerateReroutes,
// which builds a worker's schedule, stops at MaxRerouteEpochs+1 sets. Every
// reroute drops the cached routes, the fields of earlier epochs stay, Extend
// serves every scheduled epoch and no other, and a reroute past the schedule
// panics.
func TestCacheEpochStore(t *testing.T) {
	g := ring()
	c := NewCache(g, g.Clients(), 64)
	for e := int32(1); e <= 3; e++ {
		c.Lookup(3, 250)
		c.Reroute([]topology.LinkID{topology.LinkID(e)})
		if c.downs != nil || len(c.down) != 1 || !c.down[topology.LinkID(e)] || c.epoch != e || c.Len() != 0 || c.fields.len() != 0 {
			t.Fatalf("unscheduled reroute #%d: schedule %v, down %v, epoch %d, %d routes and %d fields kept; want none, {%d}, %d, 0, 0",
				e, c.downs, c.down, c.epoch, c.Len(), c.fields.len(), e, e)
		}
	}

	sets := [][]topology.LinkID{nil, {1}, {1, 2}}
	sc := ringShardCache(t, sets)
	sc.Preload(sets)
	for e := 1; e < len(sets); e++ {
		sc.Lookup(3, 250)
		sc.Reroute(sets[e])
		if len(sc.downs) != len(sets) || sc.Len() != 0 || sc.fields.len() == 0 {
			t.Fatalf("scheduled reroute #%d: %d down sets, %d routes, %d fields kept; want %d, 0, the earlier epochs'",
				e, len(sc.downs), sc.Len(), sc.fields.len(), len(sets))
		}
	}
	access := Route{pipes.ID(g.Out(sc.vnHomes[3])[0])}
	for e := int32(-1); e <= int32(len(sets)); e++ {
		_, err := sc.Extend(access, e, 250)
		if scheduled := e >= 0 && int(e) < len(sets); (err == nil) != scheduled {
			t.Errorf("Extend under epoch %d: err %v, want an error iff the epoch is not in the %d-epoch schedule", e, err, len(sets))
		}
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "exceeds the preloaded epoch schedule") {
			t.Errorf("a reroute past the schedule: recovered %q, want the schedule's panic", msg)
		}
	}()
	sc.Reroute(nil)
}
