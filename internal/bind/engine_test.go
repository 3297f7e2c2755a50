package bind

import (
	"math/rand"
	"reflect"
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
// paths a packet takes (a Matrix lookup, a Cache hit), the exact-size route
// and nothing else for a walk, and for a distance field the field itself —
// whatever the node count, since the frontier heap and the walk buffer are
// the engine's own scratch.
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

	for _, g := range []*topology.Graph{g, topology.Ring(40, 40, attrs(0.005), attrs(0.001))} {
		homes := g.Clients()
		from, to := homes[3], homes[len(homes)/2]
		e := newEngine(g, fullView(g), nil, 1)
		dist, err := e.compute(0, to, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.walk(nil, from, to, dist, nil)
		if n := testing.AllocsPerRun(50, func() {
			r, _ := e.walk(nil, from, to, dist, nil)
			sink += len(r)
		}); n != 1 {
			t.Errorf("%d nodes: route walk: %v allocs, want 1 (the route)", g.NumNodes(), n)
		}
		if n := testing.AllocsPerRun(10, func() {
			d, _ := e.compute(0, to, nil)
			sink += len(d)
		}); n != 1 {
			t.Errorf("%d nodes: distance field: %v allocs, want 1 (the field)", g.NumNodes(), n)
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
	g := topology.Random(topology.RandomConfig{Nodes: 40, Degree: 3, Attr: attrs(0.001), Seed: 5})
	for i := range g.Links {
		g.Links[i].Attr.LatencySec = float64(rng.Intn(3)) * 1e-3 // ties and zero-latency links
	}
	want := map[topology.NodeID][]Dist{}
	plain := newEngine(g, fullView(g), nil, 1)
	for n := 0; n < g.NumNodes(); n++ {
		want[topology.NodeID(n)], _ = plain.compute(0, topology.NodeID(n), nil)
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
			got, _ := e.compute(0, n, nil)
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("trial %d: field toward node %d depends on push/pop order", trial, n)
			}
		}
	}
}

var benchSink int

// BenchmarkBuildMatrix prices ring-seq's whole setup_s: the matrix over the
// benchmark's 400-VN ring.
func BenchmarkBuildMatrix(b *testing.B) {
	g := ring()
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

// BenchmarkDistField prices one reverse Dijkstra over the same ring — what a
// Cache or ShardTable miss pays before it walks.
func BenchmarkDistField(b *testing.B) {
	g := ring()
	homes := g.Clients()
	e := newEngine(g, fullView(g), nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist, err := e.compute(0, homes[i%len(homes)], nil)
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
