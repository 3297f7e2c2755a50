package bind_test

// The independent reference for the canonical routing policy, and the
// property that every table is that policy: Matrix, Cache — over the whole
// graph or a shard's view — and SummaryOracle all run one engine, so
// comparing them with each other proves nothing. The reference shares no code with it — Bellman–Ford relaxation to
// a fixed point instead of Dijkstra, a scan of the link list instead of the
// adjacency and in-link indexes, a second graph instead of a down set.

import (
	"fmt"
	"math/rand"
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/pipes"
	"modelnet/internal/routing"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

type refDist struct {
	lat  vtime.Duration
	hops int
	ok   bool
}

func (d refDist) less(o refDist) bool {
	if !o.ok || !d.ok {
		return d.ok
	}
	return d.lat < o.lat || (d.lat == o.lat && d.hops < o.hops)
}

// refWeight is the policy's link weight: the pipe's integer latency, or the
// Infinity latency when the link is down.
func refWeight(l topology.Link, down map[topology.LinkID]bool) vtime.Duration {
	if down[l.ID] {
		return vtime.DurationOf(routing.Infinity)
	}
	return vtime.DurationOf(l.Attr.LatencySec)
}

// refField relaxes every link until nothing improves.
func refField(g *topology.Graph, down map[topology.LinkID]bool, target topology.NodeID) []refDist {
	d := make([]refDist, g.NumNodes())
	d[target] = refDist{ok: true}
	for changed := true; changed; {
		changed = false
		for _, l := range g.Links {
			if !d[l.Dst].ok {
				continue
			}
			if c := (refDist{d[l.Dst].lat + refWeight(l, down), d[l.Dst].hops + 1, true}); c.less(d[l.Src]) {
				d[l.Src], changed = c, true
			}
		}
	}
	return d
}

// refRoute follows the argmin rule from src: the out-link minimizing weight +
// downstream distance, smallest link ID on ties (the scan is in ID order and
// replaces only on strict improvement).
func refRoute(g *topology.Graph, down map[topology.LinkID]bool, d []refDist, src, target topology.NodeID) (bind.Route, bool) {
	r := bind.Route{}
	for cur := src; cur != target; {
		best, bd := topology.LinkID(-1), refDist{}
		for _, l := range g.Links {
			if l.Src != cur || !d[l.Dst].ok {
				continue
			}
			if c := (refDist{d[l.Dst].lat + refWeight(l, down), d[l.Dst].hops + 1, true}); c.less(bd) {
				best, bd = l.ID, c
			}
		}
		if best < 0 {
			return nil, false
		}
		r = append(r, pipes.ID(best))
		cur = g.Links[best].Dst
	}
	return r, true
}

// refWorld is a random directed world built to hit what the policy has to
// get right: per-direction latencies from a tiny set that includes zero (so
// equal-cost paths, and paths that differ only in hop count, are common),
// one-way links, a dead-end router, sometimes a client nobody can reach and
// sometimes one that can reach nobody. Adjacency is in link-ID order, the one
// order a graph has (NewSkeleton refuses any other). Most clients are leaves —
// one duplex access pipe, so the engine serves them from their router's
// field — and the rest sit on that rule's boundary: a multi-homed client, a
// zero-latency two-armed "client" other routes transit, a client attached to
// a client (its key is itself a VN home), a client whose access is one-way in
// and leaves by another router, sometimes a leaf behind a router nothing can
// reach, and sometimes two VNs on one home.
func refWorld(rng *rand.Rand) (*topology.Graph, []topology.NodeID) {
	lats := []float64{0, 0.001, 0.001, 0.002, 0.005}
	var links []topology.Link
	addLat := func(a, b int, lat float64) {
		links = append(links, topology.Link{ID: topology.LinkID(len(links)), Src: topology.NodeID(a), Dst: topology.NodeID(b),
			Attr: topology.LinkAttrs{BandwidthBps: 1e7, LatencySec: lat}})
	}
	add := func(a, b int) { addLat(a, b, lats[rng.Intn(len(lats))]) }
	nr := 6 + rng.Intn(10)
	perm := rng.Perm(nr)
	for i := 1; i < nr; i++ { // a strongly connected router core
		j := perm[rng.Intn(i)]
		add(perm[i], j)
		add(j, perm[i])
	}
	for e := rng.Intn(2 * nr); e > 0; e-- { // one-way shortcuts
		if a, b := rng.Intn(nr), rng.Intn(nr); a != b {
			add(a, b)
		}
	}
	n := nr
	add(rng.Intn(nr), n) // a router with no way out
	n++
	var homes []topology.NodeID
	for c := 2 + rng.Intn(6); c > 0; c-- {
		r := rng.Intn(nr)
		add(n, r)
		add(r, n)
		homes = append(homes, topology.NodeID(n))
		n++
	}
	if rng.Intn(3) == 0 { // a client that can send but never be reached
		add(n, rng.Intn(nr))
		homes = append(homes, topology.NodeID(n))
		n++
	}
	if rng.Intn(3) == 0 { // a client the router core reaches that can never send
		add(rng.Intn(nr), n)
		homes = append(homes, topology.NodeID(n))
		n++
	}
	client := func(arms func()) {
		arms()
		homes = append(homes, topology.NodeID(n))
		n++
	}
	client(func() { // multi-homed: two in-links, no leaf
		for _, r := range rng.Perm(nr)[:2] {
			add(n, r)
			add(r, n)
		}
	})
	client(func() { // two free arms: routes between its routers transit it
		for _, r := range rng.Perm(nr)[:2] {
			addLat(n, r, 0)
			addLat(r, n, 0)
		}
	})
	client(func() { // attached to the first client, which stops being a leaf
		add(n, nr+1)
		add(nr+1, n)
	})
	client(func() { // one-way access: in from one router, out to another
		p := rng.Perm(nr)
		if rng.Intn(2) == 0 {
			p[0] = nr + 2 // or in from the second client: a leaf's key that is itself a leaf
		}
		add(p[0], n)
		add(n, p[1])
	})
	if rng.Intn(3) == 0 { // a leaf behind a router that sends but is never reached
		add(n, rng.Intn(nr))
		n++
		client(func() {
			add(n, n-1)
			add(n-1, n)
		})
	}
	if rng.Intn(2) == 0 { // two VNs on one home: the route between them is empty
		homes = append(homes, homes[rng.Intn(len(homes))])
	}
	n++ // an isolated node
	g, err := topology.NewSkeleton(n, len(links), links)
	if err != nil {
		panic(err)
	}
	return g, homes
}

func setOf(lids []topology.LinkID) map[topology.LinkID]bool {
	m := map[topology.LinkID]bool{}
	for _, lid := range lids {
		m[lid] = true
	}
	return m
}

// refRig is one random world with what the table tests share: a 2–3 epoch
// down-set schedule, the reference route of every (epoch, source, target), a
// random source-node partition into 1–4 shards with its views, and the
// summary oracle that seeds them.
type refRig struct {
	g     *topology.Graph
	homes []topology.NodeID
	downs [][]topology.LinkID // downs[e] is epoch e's down set; downs[0] is nil
	want  [][][]bind.Route    // want[e][src][dst]; nil = unreachable
	dist  [][][]refDist       // dist[e][dst] is the reference field toward homes[dst]

	nodeOwner, owner []int
	views            []*bind.ShardView
	skels            []*topology.Graph
	oracle           *bind.SummaryOracle
}

// newReference computes the reference answers for a world under a down-set
// schedule, and the whole-graph summary oracle the checks read seeds from.
func newReference(g *topology.Graph, homes []topology.NodeID, downs [][]topology.LinkID, oracleFields int) *refRig {
	r := &refRig{g: g, homes: homes, downs: downs}
	r.want = make([][][]bind.Route, len(r.downs))
	r.dist = make([][][]refDist, len(r.downs))
	for e, d := range r.downs {
		down := setOf(d)
		r.want[e] = make([][]bind.Route, len(r.homes))
		r.dist[e] = make([][]refDist, len(r.homes))
		for s := range r.homes {
			r.want[e][s] = make([]bind.Route, len(r.homes))
		}
		for di, to := range r.homes {
			r.dist[e][di] = refField(r.g, down, to)
			for si, from := range r.homes {
				r.want[e][si][di], _ = refRoute(r.g, down, r.dist[e][di], from, to)
			}
		}
	}
	r.oracle = bind.NewSummaryOracle(r.g, func(epoch int32) ([]topology.LinkID, error) { return r.downs[epoch], nil }, 1, oracleFields)
	return r
}

func newRefRig(t *testing.T, rng *rand.Rand, oracleFields int) *refRig {
	t.Helper()
	g, homes := refWorld(rng)
	downs := [][]topology.LinkID{nil}
	for e := 1 + rng.Intn(2); e > 0; e-- {
		var d []topology.LinkID
		for n := 1 + rng.Intn(3); n > 0; n-- {
			d = append(d, topology.LinkID(rng.Intn(g.NumLinks())))
		}
		downs = append(downs, d)
	}
	if rng.Intn(2) == 0 {
		// A pipe into some VN home — a leaf's access pipe, as a rule — is down
		// in epoch 1 only: its weight depends on the epoch, its key does not.
		home := homes[rng.Intn(len(homes))]
		for _, l := range g.Links {
			if l.Dst == home {
				downs[1] = append(downs[1], l.ID)
				break
			}
		}
	}
	r := newReference(g, homes, downs, oracleFields)

	k := 1 + rng.Intn(4)
	r.nodeOwner = make([]int, r.g.NumNodes())
	for n := range r.nodeOwner {
		r.nodeOwner[n] = rng.Intn(k)
	}
	r.owner = make([]int, r.g.NumLinks())
	for _, l := range r.g.Links {
		r.owner[l.ID] = r.nodeOwner[l.Src]
	}
	var err error
	if r.views, err = bind.BuildShardViews(r.g, r.owner, r.nodeOwner, k); err != nil {
		t.Fatal(err)
	}
	r.skels = make([]*topology.Graph, k)
	for o, v := range r.views {
		if r.skels[o], err = v.Skeleton(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// tables builds one fresh shard Cache per shard (fieldCap fields, 16 routes
// each), holding the whole epoch schedule and rerouted to epoch at.
func (r *refRig) tables(t *testing.T, fieldCap int, at int32) []*bind.Cache {
	t.Helper()
	tables := make([]*bind.Cache, len(r.views))
	for o, v := range r.views {
		tb, err := bind.NewShardTable(r.skels[o], v, r.homes, r.oracle.SeedFuncFor(v.Summary), fieldCap)
		if err != nil {
			t.Fatal(err)
		}
		tb.Preload(r.downs)
		for e := 1; e <= int(at); e++ {
			tb.Reroute(r.downs[e])
		}
		tables[o] = tb
	}
	return tables
}

// reroute moves every table to epoch e.
func (r *refRig) reroute(e int, tables ...[]*bind.Cache) {
	for _, ts := range tables {
		for _, tb := range ts {
			tb.Reroute(r.downs[e])
		}
	}
}

// stitched resolves s->d as the federation does: the first segment from the
// source's home shard (only possible under the epoch that shard is at — for
// any other pinned epoch, the reference route cut after its first foreign
// pipe stands in), then Extend on each shard the route is handed to.
func (r *refRig) stitched(t *testing.T, tables []*bind.Cache, at, pinned int32, s, d int) (bind.Route, bool) {
	t.Helper()
	home := r.nodeOwner[r.homes[s]]
	var rt bind.Route
	if at == pinned {
		var ok bool
		if rt, ok = tables[home].Lookup(pipes.VN(s), pipes.VN(d)); !ok {
			return nil, false
		}
	} else {
		for _, pid := range r.want[pinned][s][d] {
			rt = append(rt, pid)
			if r.owner[pid] != home {
				break
			}
		}
	}
	for hops := 0; len(rt) > 0 && r.g.Links[rt[len(rt)-1]].Dst != r.homes[d]; hops++ {
		o := r.owner[rt[len(rt)-1]]
		ext, err := tables[o].Extend(rt, pinned, pipes.VN(d))
		if err != nil {
			t.Fatalf("extend %d->%d on shard %d under epoch %d: %v", s, d, o, pinned, err)
		}
		if len(ext) <= len(rt) || hops > r.g.NumLinks() {
			t.Fatalf("extend %d->%d on shard %d made no progress past %v", s, d, o, rt)
		}
		rt = ext
	}
	return rt, true
}

// check holds a table's answer against the reference route.
func (r *refRig) check(t *testing.T, what string, e, s, d int, got bind.Route, ok bool) {
	t.Helper()
	w := r.want[e][s][d]
	if ok != (w != nil) || !routesEqual(got, w) {
		t.Fatalf("epoch %d (down %v) VN %d->%d: %s says %v ok=%v, reference %v", e, r.downs[e], s, d, what, got, ok, w)
	}
}

// checkWholeGraph holds the three whole-graph fronts against the reference
// under epoch e: the Matrix built over the graph with e's down links at
// Infinity latency and Bind (each of which must fail exactly when some pair
// is unreachable), the given Caches — already rerouted to e — on every pair,
// two VNs on one home included, and the oracle's Seeds toward every home
// read at every node of the world.
func (r *refRig) checkWholeGraph(t *testing.T, e int, caches ...*bind.Cache) {
	t.Helper()
	reachable := true
	for s := range r.homes {
		for d := range r.homes {
			reachable = reachable && (s == d || r.want[e][s][d] != nil)
		}
	}
	m, err := bind.BuildMatrix(downedClone(r.g, r.downs[e]), r.homes)
	if (err == nil) != reachable {
		t.Fatalf("epoch %d: BuildMatrix err=%v, reference says all pairs reachable=%v", e, err, reachable)
	}
	r.checkBind(t, e, reachable)
	nodes := make([]topology.NodeID, r.g.NumNodes())
	for n := range nodes {
		nodes[n] = topology.NodeID(n)
	}
	for d := range r.homes {
		seeds, err := r.oracle.Seeds(int32(e), r.homes[d], nodes)
		if err != nil {
			t.Fatal(err)
		}
		for n, got := range seeds {
			if w := r.dist[e][d][n]; got.Reachable() != w.ok || (w.ok && (got.Lat != w.lat || int(got.Hops) != w.hops)) {
				t.Fatalf("epoch %d (down %v): Seeds says node %d is %+v from VN %d (node %d), reference %+v", e, r.downs[e], n, got, d, r.homes[d], w)
			}
		}
		for s := range r.homes {
			if s == d {
				continue
			}
			if m != nil {
				rt, ok := m.Lookup(pipes.VN(s), pipes.VN(d))
				r.check(t, "Matrix", e, s, d, rt, ok)
			}
			for _, c := range caches {
				rt, ok := c.Lookup(pipes.VN(s), pipes.VN(d))
				r.check(t, fmt.Sprintf("Cache of capacity %d", c.Cap()), e, s, d, rt, ok)
				if c.Len() > c.Cap() {
					t.Fatalf("cache of capacity %d holds %d routes", c.Cap(), c.Len())
				}
			}
		}
	}
}

// checkBind binds the world with its homes as the only clients, at the
// default capacity: Bind must fail exactly when the reference finds some pair
// of homes unreachable, and the pair its error names must be one of those.
func (r *refRig) checkBind(t *testing.T, e int, reachable bool) {
	t.Helper()
	g := r.g.Clone()
	for n := range g.Nodes {
		g.Nodes[n].Kind = topology.Stub
	}
	vnAt := map[topology.NodeID]int{} // a rig VN on each home
	for v, h := range r.homes {
		g.Nodes[h].Kind = topology.Client
		vnAt[h] = v
	}
	_, err := bind.Bind(g, bind.Options{})
	if (err == nil) != reachable {
		t.Fatalf("epoch %d: Bind err=%v, reference says all pairs reachable=%v", e, err, reachable)
	}
	if err == nil {
		return
	}
	clients := g.Clients()
	var i, j int
	if _, serr := fmt.Sscanf(err.Error(), "bind: VN %d cannot reach VN %d", &i, &j); serr != nil || i < 0 || j < 0 || i >= len(clients) || j >= len(clients) {
		t.Fatalf("epoch %d: Bind err=%v names no VN pair of the %d bound", e, err, len(clients))
	}
	if s, d := vnAt[clients[i]], vnAt[clients[j]]; r.want[e][s][d] != nil {
		t.Fatalf("epoch %d: Bind says %v, but the reference routes node %d to node %d: %v", e, err, clients[i], clients[j], r.want[e][s][d])
	}
}

// TestRoutingOptimalityProperty: on seeded random worlds, under a 2–3 epoch
// down-set schedule and 1–4 shards of a random source-node partition,
// reference ≡ Matrix ≡ a whole-graph Cache ≡ the concatenation of shard
// Cache Lookup + Extend segments, and the oracle's Seeds ≡ the reference
// field at every node. Each Cache runs twice: squeezed (whole graph at
// capacity 1, shards at 2 fields and 32 routes, the oracle at 2 fields), so
// eviction and recomputation are on the path, and roomy (1 024 routes),
// so every route of an epoch is still cached when the next Reroute must
// drop it. Packets are also extended under epochs the receiving shard has
// not reached yet or has already left.
func TestRoutingOptimalityProperty(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			r := newRefRig(t, rand.New(rand.NewSource(int64(9100+trial))), 2)
			squeezed, roomy := r.tables(t, 2, 0), r.tables(t, 64, 0)
			cache, kept := bind.NewCache(r.g, r.homes, 1), bind.NewCache(r.g, r.homes, 1<<10)
			for e := range r.downs {
				e32 := int32(e)
				if e > 0 {
					cache.Reroute(r.downs[e])
					kept.Reroute(r.downs[e])
					r.reroute(e, squeezed, roomy)
				}
				r.checkWholeGraph(t, e, cache, kept)
				for s := range r.homes {
					for d := range r.homes {
						if s == d {
							continue
						}
						for _, tables := range [][]*bind.Cache{squeezed, roomy} {
							rt, ok := r.stitched(t, tables, e32, e32, s, d)
							r.check(t, "shard Cache", e, s, d, rt, ok)
							for p := range r.downs {
								if p != e && r.want[p][s][d] != nil {
									rt, ok = r.stitched(t, tables, e32, int32(p), s, d)
									r.check(t, fmt.Sprintf("shard Cache at epoch %d, packet pinned to", e), p, s, d, rt, ok)
								}
							}
						}
					}
				}
			}
		})
	}
}
