package bind_test

// Property test for sharded route resolution: on randomized topologies and
// k-clusters assignments, the stitched shard-local segments (homed walk +
// frontier-summary seeds + receive-time extension) must be next-hop-identical
// to the global matrix — including across reroute epochs that degrade down
// links, the same way scripted dynamics reroutes do.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/pipes"
	"modelnet/internal/routing"
	"modelnet/internal/topology"
)

// randomWorld builds a connected router mesh with clients hanging off random
// routers. Latencies come from a tiny discrete set so equal-cost paths — and
// therefore tie-breaks — are common.
func randomWorld(rng *rand.Rand) *topology.Graph {
	g := topology.New()
	nr := 10 + rng.Intn(15)
	lats := []float64{0.001, 0.002, 0.002, 0.005}
	attr := func() topology.LinkAttrs {
		return topology.LinkAttrs{BandwidthBps: topology.Mbps(10), LatencySec: lats[rng.Intn(len(lats))]}
	}
	routers := make([]topology.NodeID, nr)
	for i := range routers {
		routers[i] = g.AddNode(topology.Stub, fmt.Sprintf("r%d", i))
	}
	perm := rng.Perm(nr)
	for i := 1; i < nr; i++ {
		g.AddDuplex(routers[perm[i]], routers[perm[rng.Intn(i)]], attr())
	}
	for e := 0; e < nr; e++ {
		a, b := rng.Intn(nr), rng.Intn(nr)
		if a != b {
			g.AddDuplex(routers[a], routers[b], attr())
		}
	}
	for i := range routers {
		for c := 0; c < rng.Intn(3); c++ {
			cl := g.AddNode(topology.Client, fmt.Sprintf("c%d-%d", i, c))
			g.AddDuplex(cl, routers[i], topology.LinkAttrs{BandwidthBps: topology.Mbps(10), LatencySec: 0.001})
		}
	}
	return g
}

// downedClone degrades the epoch's down links to Infinity latency: the graph
// that pricing the down set through the weight must route exactly as.
func downedClone(g *topology.Graph, down []topology.LinkID) *topology.Graph {
	if len(down) == 0 {
		return g
	}
	gg := g.Clone()
	for _, lid := range down {
		gg.Links[lid].Attr.LatencySec = routing.Infinity
	}
	return gg
}

// stitch resolves src→dst the way the federation does: Lookup on the source
// VN's home shard, then Extend on each shard the route hands off to.
func stitch(t *testing.T, tables []*bind.Cache, owner []int, g *topology.Graph,
	vnHome []topology.NodeID, src, dst pipes.VN, epoch int32) (bind.Route, bool) {
	t.Helper()
	home := owner[g.Out(vnHome[src])[0]]
	r, ok := tables[home].Lookup(src, dst)
	if !ok {
		return nil, false
	}
	for hops := 0; ; hops++ {
		if hops > 200 {
			t.Fatalf("stitch %d->%d: no convergence after %d extensions", src, dst, hops)
		}
		if len(r) == 0 || g.Links[r[len(r)-1]].Dst == vnHome[dst] {
			return r, true
		}
		o := owner[r[len(r)-1]]
		r2, err := tables[o].Extend(r, epoch, dst)
		if err != nil {
			t.Fatalf("stitch %d->%d on shard %d: %v", src, dst, o, err)
		}
		if len(r2) <= len(r) {
			t.Fatalf("stitch %d->%d: shard %d made no progress at %v", src, dst, o, r)
		}
		r = r2
	}
}

func routesEqual(a, b bind.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInfinityLatencyAgrees pins bind's degraded-link latency to routing's:
// the two packages cannot import each other, but dynamics relies on them
// producing bit-identical degraded weights.
func TestInfinityLatencyAgrees(t *testing.T) {
	if bind.InfinityLatencySec != routing.Infinity {
		t.Fatalf("bind.InfinityLatencySec %v != routing.Infinity %v", bind.InfinityLatencySec, routing.Infinity)
	}
}

func TestShardRoutesMatchGlobalMatrix(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			g := randomWorld(rng)
			clients := g.Clients()
			if len(clients) < 2 { // randomWorld's router tree is connected by construction
				t.Skip("degenerate world")
			}
			k := 2 + rng.Intn(3)
			asn, err := assign.KClusters(g, k, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			views, err := bind.BuildShardViews(g, asn.Owner, asn.NodeOwner, k)
			if err != nil {
				t.Fatal(err)
			}

			// Reroute epochs: 0 is the pristine world, then two scripted
			// down-sets, as a dynamics failure script would produce.
			downs := [][]topology.LinkID{nil}
			for e := 1; e <= 2; e++ {
				var d []topology.LinkID
				for n := rng.Intn(3); len(d) < n; {
					d = append(d, topology.LinkID(rng.Intn(g.NumLinks())))
				}
				downs = append(downs, d)
			}
			oracle := bind.NewSummaryOracle(g, func(epoch int32) ([]topology.LinkID, error) {
				return downs[epoch], nil
			}, 0, 0)

			tables := make([]*bind.Cache, k)
			for o := 0; o < k; o++ {
				skel, err := views[o].Skeleton()
				if err != nil {
					t.Fatal(err)
				}
				tables[o], err = bind.NewShardTable(skel, views[o], clients, oracle.SeedFuncFor(views[o].Summary), 0)
				if err != nil {
					t.Fatal(err)
				}
				tables[o].Preload(downs)
			}

			for epoch := int32(0); epoch < int32(len(downs)); epoch++ {
				if epoch > 0 {
					for _, tb := range tables {
						tb.Reroute(downs[epoch])
					}
				}
				m, err := bind.BuildMatrix(downedClone(g, downs[epoch]), clients)
				if err != nil {
					t.Fatal(err)
				}
				for si := 0; si < len(clients); si++ {
					for di := 0; di < len(clients); di++ {
						src, dst := pipes.VN(si), pipes.VN(di)
						want, wok := m.Lookup(src, dst)
						got, gok := stitch(t, tables, asn.Owner, g, clients, src, dst, epoch)
						if wok != gok {
							t.Fatalf("epoch %d %d->%d: matrix ok=%v shard ok=%v", epoch, src, dst, wok, gok)
						}
						if wok && !routesEqual(want, got) {
							t.Fatalf("epoch %d %d->%d:\n matrix %v\n shard  %v", epoch, src, dst, want, got)
						}
					}
				}
			}

			// Pinned-epoch extension: a packet injected at epoch 0 but tunneled
			// after later reroutes must still follow epoch 0's route. Rebuild the
			// first cross-shard route from its truncated first segment using
			// Extend(epoch=0) while the tables sit at the latest epoch.
			m0, err := bind.BuildMatrix(g, clients)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for si := 0; si < len(clients) && checked < 5; si++ {
				for di := 0; di < len(clients) && checked < 5; di++ {
					full, ok := m0.Lookup(pipes.VN(si), pipes.VN(di))
					if !ok || len(full) == 0 {
						continue
					}
					home := asn.Owner[full[0]]
					cut := -1
					for i, pid := range full {
						if asn.Owner[pid] != home {
							cut = i
							break
						}
					}
					if cut < 0 {
						continue // never leaves the home shard
					}
					r := append(bind.Route(nil), full[:cut+1]...)
					for hops := 0; g.Links[r[len(r)-1]].Dst != clients[di]; hops++ {
						if hops > 200 {
							t.Fatalf("pinned extension diverged for %d->%d", si, di)
						}
						o := asn.Owner[r[len(r)-1]]
						r, err = tables[o].Extend(r, 0, pipes.VN(di))
						if err != nil {
							t.Fatal(err)
						}
					}
					if !routesEqual(full, r) {
						t.Fatalf("pinned epoch 0 %d->%d:\n matrix %v\n shard  %v", si, di, full, r)
					}
					checked++
				}
			}
		})
	}
}

// TestBuildShardViewsRejectsNonSourceOwnership guards the decomposition's
// precondition loudly.
func TestBuildShardViewsRejectsNonSourceOwnership(t *testing.T) {
	g := topology.Ring(4, 1, topology.LinkAttrs{BandwidthBps: 1e6, LatencySec: 0.001},
		topology.LinkAttrs{BandwidthBps: 1e6, LatencySec: 0.001})
	owner := make([]int, g.NumLinks()) // two blocks of link IDs, blind to which node a link leaves
	for i := range owner {
		owner[i] = 2 * i / len(owner)
	}
	nodeOwner := make([]int, g.NumNodes())
	if _, err := bind.BuildShardViews(g, owner, nodeOwner, 2); err == nil {
		t.Fatal("expected source-ownership violation to be rejected")
	}
}

// TestRerouteRefusesAForkedSchedule: a shard Cache holding a preloaded
// schedule refuses a reroute whose down set is not the next epoch's — the
// live replay has forked from the enumeration — and says which shard, which
// reroute and the first link the two sets disagree on.
func TestRerouteRefusesAForkedSchedule(t *testing.T) {
	g := topology.Ring(4, 2, topology.LinkAttrs{BandwidthBps: 1e6, LatencySec: 0.001},
		topology.LinkAttrs{BandwidthBps: 1e6, LatencySec: 0.001})
	asn, err := assign.KClusters(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	views, err := bind.BuildShardViews(g, asn.Owner, asn.NodeOwner, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle := bind.NewSummaryOracle(g, nil, 0, 0)
	c, err := bind.NewShardTable(g, views[1], g.Clients(), oracle.SeedFuncFor(views[1].Summary), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Preload([][]topology.LinkID{nil, {5}, {2, 5}})
	c.Reroute([]topology.LinkID{5})
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"shard 1", "reroute #2", "at link 2 "} {
			if !strings.Contains(msg, want) {
				t.Errorf("a reroute off the schedule: recovered %q, want it to name %q", msg, want)
			}
		}
	}()
	c.Reroute([]topology.LinkID{7, 5}) // the schedule says {2, 5}: link 2 is up, 7 down
}

// TestExtendLeavesTheCachedSegment: a packet's route starts as the very slice
// its home shard's Cache holds for the pair, and Extend on the next shard
// grows it. The growth must go into a new route: the cached segment, and what
// the next lookup of the pair returns, stay the segment.
func TestExtendLeavesTheCachedSegment(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(7700 + trial)))
		g := randomWorld(rng)
		clients := g.Clients()
		asn, err := assign.KClusters(g, 2+rng.Intn(2), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		views, err := bind.BuildShardViews(g, asn.Owner, asn.NodeOwner, asn.Cores)
		if err != nil {
			t.Fatal(err)
		}
		oracle := bind.NewSummaryOracle(g, nil, 0, 0)
		tables := make([]*bind.Cache, asn.Cores)
		for o := range tables {
			if tables[o], err = bind.NewShardTable(g, views[o], clients, oracle.SeedFuncFor(views[o].Summary), 0); err != nil {
				t.Fatal(err)
			}
		}
		for s := range clients {
			for d := range clients {
				home := tables[asn.Owner[g.Out(clients[s])[0]]]
				seg, ok := home.Lookup(pipes.VN(s), pipes.VN(d))
				if !ok || len(seg) == 0 || g.Links[seg[len(seg)-1]].Dst == clients[d] {
					continue // no segment for a later shard to grow
				}
				was := append(bind.Route(nil), seg...)
				full, _ := stitch(t, tables, asn.Owner, g, clients, pipes.VN(s), pipes.VN(d), 0)
				again, _ := home.Lookup(pipes.VN(s), pipes.VN(d))
				if !routesEqual(seg, was) || !routesEqual(again, was) || len(full) <= len(was) {
					t.Fatalf("trial %d, VN %d->%d: cached segment %v became %v (looked up again: %v) when the route grew to %v",
						trial, s, d, was, seg, again, full)
				}
			}
		}
	}
}
