package topology

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func std() LinkAttrs {
	return LinkAttrs{BandwidthBps: Mbps(10), LatencySec: Ms(5), QueuePkts: 10}
}

// randomGraph is a connected random world of n stub routers: a random
// spanning tree plus as many random extra duplex links again.
func randomGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(Stub, "n"+strconv.Itoa(i))
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddDuplex(NodeID(perm[i]), NodeID(perm[rng.Intn(i)]), std())
	}
	for e := 0; e < n; e++ {
		if a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); a != b {
			g.AddDuplex(a, b, std())
		}
	}
	return g
}

// connected reports whether every node is reachable from node 0 following
// directed links. The empty graph is connected.
func connected(g *Graph) bool {
	if len(g.Nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.Nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range g.Out(n) {
			if d := g.Links[lid].Dst; !seen[d] {
				seen[d] = true
				count++
				stack = append(stack, d)
			}
		}
	}
	return count == len(g.Nodes)
}

func TestAddAndLookup(t *testing.T) {
	g := New()
	a := g.AddNode(Client, "a")
	b := g.AddNode(Stub, "b")
	l1, l2 := g.AddDuplex(a, b, std())
	if g.NumNodes() != 2 || g.NumLinks() != 2 {
		t.Fatalf("counts: %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	if g.Links[l1].Src != a || g.Links[l1].Dst != b {
		t.Errorf("l1 endpoints wrong")
	}
	if g.Links[l2].Src != b || g.Links[l2].Dst != a {
		t.Errorf("l2 endpoints wrong")
	}
	if got, ok := g.FindLink(a, b); !ok || got.ID != l1 {
		t.Errorf("FindLink(a,b) = %v,%v", got, ok)
	}
	if _, ok := g.FindLink(b, NodeID(99)); ok {
		t.Errorf("FindLink to bogus node succeeded")
	}
	if n := g.Neighbors(a); len(n) != 1 || n[0] != b {
		t.Errorf("Neighbors(a) = %v", n)
	}
}

func TestValidate(t *testing.T) {
	g := New()
	a := g.AddNode(Client, "a")
	b := g.AddNode(Stub, "b")
	g.AddDuplex(a, b, std())
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	bad := g.Clone()
	bad.Links[0].Attr.BandwidthBps = 0
	if bad.Validate() == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = g.Clone()
	bad.Links[0].Attr.LossRate = 1.0
	if bad.Validate() == nil {
		t.Error("loss rate 1.0 accepted")
	}
	bad = g.Clone()
	bad.Links[0].Dst = bad.Links[0].Src
	if bad.Validate() == nil {
		t.Error("self loop accepted")
	}
	lonely := New()
	lonely.AddNode(Client, "x")
	if lonely.Validate() == nil {
		t.Error("linkless client accepted")
	}
}

func TestLinkClass(t *testing.T) {
	g := New()
	c := g.AddNode(Client, "c")
	s1 := g.AddNode(Stub, "s1")
	s2 := g.AddNode(Stub, "s2")
	t1 := g.AddNode(Transit, "t1")
	t2 := g.AddNode(Transit, "t2")
	cases := []struct {
		a, b NodeID
		want LinkClass
	}{
		{c, s1, ClientStub},
		{s1, s2, StubStub},
		{s1, t1, StubTransit},
		{t1, t2, TransitTransit},
		{c, t1, ClientStub}, // client wins
	}
	for _, tc := range cases {
		id := g.AddLink(tc.a, tc.b, std())
		if got := g.Class(g.Links[id]); got != tc.want {
			t.Errorf("Class(%v->%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRingShape(t *testing.T) {
	// Paper §4.1: 20 routers, 20 VNs each => 419 pipes shared among 400 VNs.
	// The paper counts bidirectional pipes... our directed count: ring has
	// 20 duplex transit links + 400 duplex access links = 840 directed.
	g := Ring(20, 20, std(), std())
	if got := g.NumNodes(); got != 420 {
		t.Errorf("nodes = %d, want 420", got)
	}
	if got := g.NumLinks(); got != 840 {
		t.Errorf("directed links = %d, want 840", got)
	}
	if got := len(g.Clients()); got != 400 {
		t.Errorf("clients = %d, want 400", got)
	}
	if !connected(g) {
		t.Error("ring not connected")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestStarShape(t *testing.T) {
	g := Star(10, std())
	if g.NumNodes() != 11 || g.NumLinks() != 20 {
		t.Fatalf("star: %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	if !connected(g) {
		t.Error("star not connected")
	}
}

func TestLineShape(t *testing.T) {
	for hops := 1; hops <= 12; hops++ {
		g := Line(hops, std())
		// hops router links means hops routers... path = access + (hops-1) inter-router + access = hops+1 links
		wantNodes := 2 + hops
		if g.NumNodes() != wantNodes {
			t.Errorf("Line(%d): %d nodes, want %d", hops, g.NumNodes(), wantNodes)
		}
		if !connected(g) {
			t.Errorf("Line(%d) not connected", hops)
		}
	}
}

func TestPairsShape(t *testing.T) {
	g := Pairs(5, 3, std())
	if got := len(g.Clients()); got != 10 {
		t.Errorf("clients = %d, want 10", got)
	}
	// Each pair: src + 2 routers + dst, 3 duplex links.
	if g.NumLinks() != 5*3*2 {
		t.Errorf("links = %d, want 30", g.NumLinks())
	}
	if connected(g) {
		t.Error("Pairs should be disconnected between pairs")
	}
}

func TestFullMesh(t *testing.T) {
	g := FullMesh(6, func(i, j int) LinkAttrs { return std() })
	if g.NumLinks() != 6*5 {
		t.Errorf("links = %d, want 30", g.NumLinks())
	}
	if !connected(g) {
		t.Error("mesh not connected")
	}
}

func TestRandomConnected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(50, seed)
		if !connected(g) {
			t.Errorf("seed %d: random graph disconnected", seed)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestTransitStub(t *testing.T) {
	cfg := TransitStubConfig{
		TransitDomains:   1,
		TransitPerDomain: 4,
		StubsPerTransit:  3,
		RoutersPerStub:   4,
		ClientsPerStub:   2,
		TransitTransit:   LinkAttrs{BandwidthBps: Mbps(155), LatencySec: Ms(20), QueuePkts: 50},
		TransitStub:      LinkAttrs{BandwidthBps: Mbps(45), LatencySec: Ms(10), QueuePkts: 50},
		StubStub:         LinkAttrs{BandwidthBps: Mbps(100), LatencySec: Ms(2), QueuePkts: 50},
		ClientStub:       LinkAttrs{BandwidthBps: Mbps(1), LatencySec: Ms(1), QueuePkts: 10},
		Seed:             7,
	}
	g := TransitStub(cfg)
	wantClients := 4 * 3 * 2
	if got := len(g.Clients()); got != wantClients {
		t.Errorf("clients = %d, want %d", got, wantClients)
	}
	if !connected(g) {
		t.Error("transit-stub disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Every client-stub link must carry the client attrs.
	for _, l := range g.Links {
		if g.Class(l) == ClientStub && l.Attr.BandwidthBps != Mbps(1) {
			t.Errorf("client link %d has bandwidth %v", l.ID, l.Attr.BandwidthBps)
		}
	}
}

func TestJitterCosts(t *testing.T) {
	g := Ring(6, 1, std(), std())
	g.JitterCosts(StubStub, 20, 40, 1)
	for _, l := range g.Links {
		if g.Class(l) != StubStub {
			continue
		}
		if l.Attr.Cost < 20 || l.Attr.Cost > 40 {
			t.Errorf("cost %v outside [20,40]", l.Attr.Cost)
		}
		rev, ok := g.FindLink(l.Dst, l.Src)
		if !ok || rev.Attr.Cost != l.Attr.Cost {
			t.Errorf("asymmetric duplex cost: %v vs %v", l.Attr.Cost, rev.Attr.Cost)
		}
	}
}

// Property: Clone is deep — mutating the clone never affects the original.
func TestCloneIsolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(10, seed)
		c := g.Clone()
		for i := range c.Links {
			c.Links[i].Attr.BandwidthBps = 1
		}
		c.AddNode(Client, "extra")
		for _, l := range g.Links {
			if l.Attr.BandwidthBps == 1 {
				return false
			}
		}
		return g.NumNodes() == 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
