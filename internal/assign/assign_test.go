package assign

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"modelnet/internal/bind"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

func attrs() topology.LinkAttrs {
	return topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.005, QueuePkts: 10}
}

// even is the structure-blind baseline k-clusters is measured against: pipes
// to cores in contiguous equal-size blocks of link ID space.
func even(g *topology.Graph, k int) *Assignment {
	a := &Assignment{Owner: make([]int, g.NumLinks()), Cores: k}
	per := (g.NumLinks() + k - 1) / k
	for i := range a.Owner {
		a.Owner[i] = i / per
	}
	return a
}

// crossings counts the core crossings (§3.3) of every VN-pair route a route
// Cache resolves over g, starting on the core ingress names, or on the first
// pipe's owner when ingress is nil; mean is per route.
func crossings(g *topology.Graph, pod *bind.POD, ingress func(src pipes.VN) int) (total int, mean float64) {
	c := bind.NewCache(g, g.Clients(), 0)
	n, routes := len(g.Clients()), 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r, ok := c.Lookup(pipes.VN(i), pipes.VN(j))
			if !ok {
				continue
			}
			ing := 0
			if ingress != nil {
				ing = ingress(pipes.VN(i))
			} else if len(r) > 0 {
				ing = pod.Owner(r[0])
			}
			total += pod.Crossings(ing, r)
			routes++
		}
	}
	return total, float64(total) / float64(routes)
}

// randomGraph is a connected random world of n stub routers: a random
// spanning tree plus n/4 extra random duplex links.
func randomGraph(n int, seed int64) *topology.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := topology.New()
	for i := 0; i < n; i++ {
		g.AddNode(topology.Stub, fmt.Sprintf("n%d", i))
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddDuplex(topology.NodeID(perm[i]), topology.NodeID(perm[rng.Intn(i)]), attrs())
	}
	for e := 0; e < n/4; e++ {
		if a, b := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n)); a != b {
			g.AddDuplex(a, b, attrs())
		}
	}
	return g
}

func TestKClustersCoversAllLinks(t *testing.T) {
	g := topology.Ring(10, 4, attrs(), attrs())
	a, err := KClusters(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Owner) != g.NumLinks() {
		t.Fatalf("owner len %d, want %d", len(a.Owner), g.NumLinks())
	}
	for i, c := range a.Owner {
		if c < 0 || c >= 4 {
			t.Fatalf("link %d owner %d out of range", i, c)
		}
	}
}

func TestKClustersSingleCore(t *testing.T) {
	g := topology.Star(8, attrs())
	a, err := KClusters(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Owner {
		if c != 0 {
			t.Fatal("single core assignment non-zero")
		}
	}
}

func TestKClustersAccessPairsStayWithRouter(t *testing.T) {
	// Both directions of every client access link must share one owner
	// (the client's home core), so VN injection and delivery are always
	// core-local in the parallel runtime.
	g := topology.Ring(8, 2, attrs(), attrs())
	a, err := KClusters(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range g.Links {
		if g.Class(l) != topology.ClientStub {
			continue
		}
		rev, ok := g.FindLink(l.Dst, l.Src)
		if !ok {
			continue
		}
		if a.Owner[l.ID] != a.Owner[rev.ID] {
			t.Fatalf("access pair (%d,%d) split across cores %d/%d",
				l.ID, rev.ID, a.Owner[l.ID], a.Owner[rev.ID])
		}
	}
}

func TestKClustersLookaheadObjective(t *testing.T) {
	// On a ring with slow backbone links and fast access links, the cut
	// must fall across the backbone: lookahead == the ring latency, an
	// order of magnitude above the access latency.
	ring := topology.LinkAttrs{BandwidthBps: 100e6, LatencySec: 0.010, QueuePkts: 50}
	access := topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.001, QueuePkts: 50}
	g := topology.Ring(20, 20, ring, access)
	for _, k := range []int{2, 4, 8} {
		a, err := KClusters(g, k, 11)
		if err != nil {
			t.Fatal(err)
		}
		cs := a.CutStats(g, nil)
		if cs.CutPipes == 0 {
			t.Fatalf("k=%d: no cut pipes on a partitioned ring", k)
		}
		if cs.Lookahead.Seconds() != ring.LatencySec {
			t.Errorf("k=%d: lookahead %v, want the ring latency %vs (cut crossed an access link)",
				k, cs.Lookahead, ring.LatencySec)
		}
	}
	// The structure-blind Even baseline cuts access links: its lookahead
	// is strictly worse.
	ev := even(g, 4)
	kc, _ := KClusters(g, 4, 11)
	if ev.CutStats(g, nil).Lookahead >= kc.CutStats(g, nil).Lookahead {
		t.Errorf("Even lookahead %v not worse than KClusters %v",
			ev.CutStats(g, nil).Lookahead, kc.CutStats(g, nil).Lookahead)
	}
}

func TestKClustersDisconnected(t *testing.T) {
	g := topology.Pairs(6, 2, attrs())
	a, err := KClusters(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range a.Owner {
		if c < 0 {
			t.Fatalf("link %d unassigned", i)
		}
	}
}

func TestKClustersErrors(t *testing.T) {
	g := topology.Star(4, attrs())
	if _, err := KClusters(g, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestEvenBalance(t *testing.T) {
	g := topology.Ring(10, 4, attrs(), attrs())
	m := even(g, 4).LoadMetrics()
	for c, n := range m.LinksPerCore {
		if n == 0 {
			t.Errorf("core %d empty", c)
		}
	}
	if m.Imbalance > 1.1 {
		t.Errorf("even imbalance %v", m.Imbalance)
	}
}

func TestLoadMetrics(t *testing.T) {
	a := &Assignment{Owner: []int{0, 0, 0, 1}, Cores: 2}
	m := a.LoadMetrics()
	if m.LinksPerCore[0] != 3 || m.LinksPerCore[1] != 1 {
		t.Fatalf("loads %v", m.LinksPerCore)
	}
	if m.Imbalance != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", m.Imbalance)
	}
}

func TestKClustersBeatsEvenOnCrossings(t *testing.T) {
	// On a locality-rich topology, k-clusters should produce far fewer
	// route crossings than blind even partitioning.
	g := topology.Ring(12, 4, attrs(), attrs())
	kc, _ := KClusters(g, 4, 3)
	kcTotal, _ := crossings(g, kc.POD(), nil)
	evTotal, _ := crossings(g, even(g, 4).POD(), nil)
	if kcTotal >= evTotal {
		t.Errorf("k-clusters crossings %d ≥ even crossings %d", kcTotal, evTotal)
	}
}

func TestCrossingStatsIngress(t *testing.T) {
	g := topology.Star(4, attrs())
	// All pipes on core 0; ingress forced to core 1 => every route crosses once.
	owner := make([]int, g.NumLinks())
	pod := bind.NewPOD(owner, 2)
	total, mean := crossings(g, pod, func(pipes.VN) int { return 1 })
	wantRoutes := 4 * 3
	if total != wantRoutes {
		t.Errorf("total crossings = %d, want %d", total, wantRoutes)
	}
	if mean != 1 {
		t.Errorf("mean = %v, want 1", mean)
	}
}

// Property: every link gets an owner in range for any k and seed.
func TestAssignmentTotalProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw)%6 + 1
		g := randomGraph(30, seed)
		a, err := KClusters(g, k, seed)
		if err != nil {
			return false
		}
		if len(a.Owner) != g.NumLinks() {
			return false
		}
		seen := make([]bool, k)
		for _, c := range a.Owner {
			if c < 0 || c >= k {
				return false
			}
			seen[c] = true
		}
		_ = seen
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
