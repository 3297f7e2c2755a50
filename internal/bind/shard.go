package bind

// Sharded world distribution: each federated worker holds only its shard's
// view of the world — owned links, the cut frontier, and the fringe links
// needed to route across it — yet reproduces exactly the next-hops the
// global routing matrix would have picked.
//
// The decomposition argument: under source-node ownership (assign.KClusters,
// owner(l) = NodeOwner[src(l)]), a path leaving shard o's region crosses an
// owned link into a foreign "frontier" node m and continues over links o does
// not own. The canonical distance from any o-local node n to target t is
// therefore min(shortest path within owned links, min over frontier m of
// (owned-path n→m + global dist m→t)). Because the policy distance (dest.go)
// is an integer lexicographic pair with associative addition, a reverse
// Dijkstra over owned links seeded with the frontier's *global* distances
// computes bit-exactly the global distance at every local node — and the
// NextHop argmin, evaluated over the identical candidate link set with the
// identical tie-break, picks the identical link. Routes are produced as
// segments: each shard appends its owned pipes plus the first foreign pipe,
// and the receiving shard extends the route on arrival, so the concatenation
// traversed by a packet is byte-identical to the monolithic route.

import (
	"container/heap"
	"fmt"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// InfinityLatencySec is the latency a failed link degrades to: routes still
// traverse it (traffic blackholes at the down pipe) but any live path is
// preferred. It must equal routing.Infinity — routing sits above bind in the
// import graph, so the constant lives here and routing's tests pin the two
// together.
const InfinityLatencySec = 1e6

// ShardView is the slice of the world one shard materializes: its owned
// links, incoming cut links (foreign links delivering into its region — the
// sync plan needs their owners), and the fringe (every out-link of every
// frontier node, so NextHop at a frontier node sees the full global candidate
// set). Node and link IDs are global; the worker rebuilds a skeleton graph
// (topology.NewSkeleton) over the full ID spaces with only these links real.
type ShardView struct {
	Shard int
	Cores int
	// NumNodes and NumLinks are the global ID-space sizes.
	NumNodes int
	NumLinks int
	// Links holds the view's real links in ascending ID order; LinkOwner is
	// parallel to it (owning core of each link).
	Links     []topology.Link
	LinkOwner []int32
	// Frontier is the sorted set of foreign nodes reachable over one owned
	// link — where this shard's packets leave its region.
	Frontier []topology.NodeID
	// Summary is the sorted set of foreign nodes whose global distances seed
	// the shard-local route computation: the frontier plus every foreign head
	// of a fringe link.
	Summary []topology.NodeID
}

// BuildShardViews slices the world into per-shard views. owner is the link
// assignment (assign.Assignment.Owner), nodeOwner the node-level partition
// behind it (assign.Assignment.NodeOwner); source-node ownership
// (owner[l] == nodeOwner[src(l)]) is required — it is what confines a
// node's out-links to one shard and makes the frontier decomposition exact.
func BuildShardViews(g *topology.Graph, owner []int, nodeOwner []int, cores int) ([]*ShardView, error) {
	if len(owner) != g.NumLinks() {
		return nil, fmt.Errorf("bind: owner covers %d links, graph has %d", len(owner), g.NumLinks())
	}
	if len(nodeOwner) != g.NumNodes() {
		return nil, fmt.Errorf("bind: nodeOwner covers %d nodes, graph has %d", len(nodeOwner), g.NumNodes())
	}
	for i, l := range g.Links {
		if owner[i] != nodeOwner[l.Src] {
			return nil, fmt.Errorf("bind: link %d owned by %d but its source node %d by %d; sharded distribution requires source-node ownership",
				i, owner[i], l.Src, nodeOwner[l.Src])
		}
		if owner[i] < 0 || owner[i] >= cores {
			return nil, fmt.Errorf("bind: link %d owner %d outside %d cores", i, owner[i], cores)
		}
	}
	views := make([]*ShardView, cores)
	inView := make([]bool, g.NumLinks())
	frontier := make([]bool, g.NumNodes())
	summary := make([]bool, g.NumNodes())
	for o := 0; o < cores; o++ {
		for i := range inView {
			inView[i] = false
		}
		for i := range frontier {
			frontier[i], summary[i] = false, false
		}
		for i, l := range g.Links {
			switch {
			case owner[i] == o:
				inView[i] = true
				if nodeOwner[l.Dst] != o {
					frontier[l.Dst] = true
				}
			case nodeOwner[l.Dst] == o:
				inView[i] = true // incoming cut link
			}
		}
		v := &ShardView{Shard: o, Cores: cores, NumNodes: g.NumNodes(), NumLinks: g.NumLinks()}
		for n := range frontier {
			if !frontier[n] {
				continue
			}
			v.Frontier = append(v.Frontier, topology.NodeID(n))
			summary[n] = true
			for _, lid := range g.Out(topology.NodeID(n)) {
				inView[lid] = true
				if h := g.Links[lid].Dst; nodeOwner[h] != o {
					summary[h] = true
				}
			}
		}
		for n := range summary {
			if summary[n] {
				v.Summary = append(v.Summary, topology.NodeID(n))
			}
		}
		for i := range inView {
			if inView[i] {
				v.Links = append(v.Links, g.Links[i])
				v.LinkOwner = append(v.LinkOwner, int32(owner[i]))
			}
		}
		views[o] = v
	}
	return views, nil
}

// Skeleton materializes the view as a sparse graph over the global ID spaces.
func (v *ShardView) Skeleton() (*topology.Graph, error) {
	return topology.NewSkeleton(v.NumNodes, v.NumLinks, v.Links)
}

// SeedFunc supplies the global distances from a shard's Summary nodes to a
// target node under a given reroute epoch, in the view's Summary order. On a
// worker this is a control-plane RPC to the coordinator; in-process it wraps
// a SummaryOracle.
type SeedFunc func(epoch int32, target topology.NodeID) ([]Dist, error)

// fieldKey identifies one cached shard-local distance field.
type fieldKey struct {
	epoch  int32
	target topology.NodeID
}

// ShardTable is the shard-local routing table: it resolves routes over the
// shard view, seeding distance fields with frontier summaries fetched on
// demand (SeedFunc) and caching them per (reroute epoch, target home) in a
// bounded LRU. Lookup produces the route segment up to and including the
// first foreign pipe; Extend grows a tunneled packet's route the same way on
// the receiving shard. Reroute epochs advance with AdvanceEpoch; packets
// keep the epoch they were injected under, so in-flight routes stay exactly
// what the monolithic injection-time matrix would have produced.
type ShardTable struct {
	g      *topology.Graph // skeleton (or full graph in tests)
	shard  int
	vnHome []topology.NodeID
	owner  []int32 // dense link ID -> owning core, -1 = outside the view
	summ   []topology.NodeID
	seeds  SeedFunc

	nodeIdx []int32 // dense node ID -> compact index, -1 = uncovered
	covered []topology.NodeID
	revIn   [][]topology.LinkID // compact dst index -> owned in-links

	epoch int32
	downs []map[topology.LinkID]bool // per-epoch down link sets

	// fields caches distance fields, each compact: indexed by nodeIdx.
	fields   *lru[fieldKey, []Dist]
	Misses   uint64
	SeedRPCs uint64
}

// downLat is the canonical weight of a failed link: the same Infinity-latency
// degradation dynamics applies to the global graph before rerouting.
var downLat = vtime.DurationOf(InfinityLatencySec)

// NewShardTable builds the table for one shard. g must contain the view's
// links under their global IDs (a ShardView.Skeleton, or the full graph);
// vnHome is the global VN→home mapping; fieldCap bounds the cached distance
// fields (≤ 0 picks a default sized for a bounded-target workload).
func NewShardTable(g *topology.Graph, view *ShardView, vnHome []topology.NodeID, seeds SeedFunc, fieldCap int) (*ShardTable, error) {
	if fieldCap <= 0 {
		// Fields materialize lazily, one per route target actually used, so
		// the cap only bounds worst-case many-target memory. It must exceed
		// the workload's distinct-target count: below that the LRU thrashes
		// and every lookup becomes a coordinator round trip.
		fieldCap = 4096
	}
	t := &ShardTable{
		g: g, shard: view.Shard, vnHome: vnHome, summ: view.Summary, seeds: seeds,
		owner:   make([]int32, view.NumLinks),
		nodeIdx: make([]int32, view.NumNodes),
		downs:   []map[topology.LinkID]bool{nil},
		fields:  newLRU[fieldKey, []Dist](fieldCap),
	}
	for i := range t.owner {
		t.owner[i] = -1
	}
	for i, l := range view.Links {
		if l.ID < 0 || int(l.ID) >= view.NumLinks {
			return nil, fmt.Errorf("bind: shard view link ID %d outside %d slots", l.ID, view.NumLinks)
		}
		t.owner[l.ID] = view.LinkOwner[i]
	}
	for i := range t.nodeIdx {
		t.nodeIdx[i] = -1
	}
	mark := make([]bool, view.NumNodes)
	for _, l := range view.Links {
		mark[l.Src], mark[l.Dst] = true, true
	}
	for n, m := range mark {
		if m {
			t.nodeIdx[n] = int32(len(t.covered))
			t.covered = append(t.covered, topology.NodeID(n))
		}
	}
	t.revIn = make([][]topology.LinkID, len(t.covered))
	for i, l := range view.Links {
		if view.LinkOwner[i] == int32(view.Shard) {
			ci := t.nodeIdx[l.Dst]
			t.revIn[ci] = append(t.revIn[ci], l.ID)
		}
	}
	return t, nil
}

// Epoch reports the current reroute epoch (0 before any reroute).
func (t *ShardTable) Epoch() int32 { return t.epoch }

// AdvanceEpoch starts a new reroute epoch with the given set of currently
// down links. Earlier epochs' fields stay valid for in-flight packets.
func (t *ShardTable) AdvanceEpoch(down []topology.LinkID) {
	var m map[topology.LinkID]bool
	if len(down) > 0 {
		m = make(map[topology.LinkID]bool, len(down))
		for _, lid := range down {
			m[lid] = true
		}
	}
	t.downs = append(t.downs, m)
	t.epoch++
}

// SetEpochs installs the full reroute schedule up front: sets[e] is the
// down-set in force at epoch e (sets[0] nil or empty, the pristine world;
// dynamics.EnumerateReroutes produces exactly this shape). The current epoch
// is unchanged — Lookup keeps resolving under the epochs this shard's own
// replay has reached — but the table can serve distance fields for *any*
// scheduled epoch, which Extend needs: a faster peer may tunnel a packet
// injected under a reroute this shard has not fired yet.
func (t *ShardTable) SetEpochs(sets [][]topology.LinkID) {
	downs := make([]map[topology.LinkID]bool, len(sets))
	for e, set := range sets {
		if len(set) == 0 {
			continue
		}
		m := make(map[topology.LinkID]bool, len(set))
		for _, lid := range set {
			m[lid] = true
		}
		downs[e] = m
	}
	if len(downs) == 0 {
		downs = []map[topology.LinkID]bool{nil}
	}
	t.downs = downs
}

// Advance moves to the next preloaded epoch — the reroute hook under a
// SetEpochs schedule. It panics if the schedule is exhausted: the live
// replay fired more reroutes than the enumeration that built the schedule,
// and continuing would silently route packets against the wrong graph.
func (t *ShardTable) Advance() {
	if int(t.epoch)+1 >= len(t.downs) {
		panic(fmt.Sprintf("bind: shard %d reroute #%d exceeds the preloaded epoch schedule (%d epochs)",
			t.shard, t.epoch+1, len(t.downs)))
	}
	t.epoch++
}

// weight is the epoch-aware canonical link weight.
func (t *ShardTable) weight(lid topology.LinkID, epoch int32) vtime.Duration {
	if m := t.downs[epoch]; m != nil && m[lid] {
		return downLat
	}
	return LinkLat(t.g.Links[lid])
}

// field returns the shard-local distance field toward target at epoch,
// computing and caching it on a miss.
func (t *ShardTable) field(epoch int32, target topology.NodeID) ([]Dist, error) {
	if epoch < 0 || int(epoch) >= len(t.downs) {
		return nil, fmt.Errorf("bind: shard %d asked for unknown reroute epoch %d (current %d)", t.shard, epoch, t.epoch)
	}
	key := fieldKey{epoch, target}
	if dist, ok := t.fields.get(key); ok {
		return dist, nil
	}
	t.Misses++
	dist, err := t.compute(epoch, target)
	if err != nil {
		return nil, err
	}
	t.fields.put(key, dist)
	return dist, nil
}

// compute runs the seeded reverse Dijkstra over owned links. Seeds are the
// summary nodes' exact global distances, so every covered local node ends at
// its exact global distance (see the decomposition argument above).
func (t *ShardTable) compute(epoch int32, target topology.NodeID) ([]Dist, error) {
	dist := make([]Dist, len(t.covered))
	for i := range dist {
		dist[i] = Unreachable
	}
	var q destPQ
	seed := func(n topology.NodeID, d Dist) {
		ci := t.nodeIdx[n]
		if ci < 0 || !d.Less(dist[ci]) {
			return
		}
		dist[ci] = d
		heap.Push(&q, destItem{n, d})
	}
	if len(t.summ) > 0 {
		t.SeedRPCs++
		sd, err := t.seeds(epoch, target)
		if err != nil {
			return nil, fmt.Errorf("bind: shard %d summary seeds for node %d epoch %d: %w", t.shard, target, epoch, err)
		}
		if len(sd) != len(t.summ) {
			return nil, fmt.Errorf("bind: shard %d got %d summary seeds, want %d", t.shard, len(sd), len(t.summ))
		}
		for i, s := range t.summ {
			if sd[i].Reachable() {
				seed(s, sd[i])
			}
		}
	}
	seed(target, Dist{})
	done := make([]bool, len(t.covered))
	for q.Len() > 0 {
		it := heap.Pop(&q).(destItem)
		ci := t.nodeIdx[it.node]
		if done[ci] {
			continue
		}
		done[ci] = true
		for _, lid := range t.revIn[ci] {
			l := t.g.Links[lid]
			nd := it.d.Add(t.weight(lid, epoch))
			si := t.nodeIdx[l.Src]
			if nd.Less(dist[si]) {
				dist[si] = nd
				heap.Push(&q, destItem{l.Src, nd})
			}
		}
	}
	return dist, nil
}

// routeFrom appends the canonical walk from cur toward target to r, stopping
// after the first pipe owned by another shard (its owner extends the route on
// arrival). The argmin and tie-break are exactly NextHop's; at a local node
// the candidate set is all of the node's out-links (source-node ownership),
// at a frontier node it is the shipped fringe — the full global set either
// way, so the picked link is the global pick.
func (t *ShardTable) routeFrom(r Route, cur, target topology.NodeID, dist []Dist, epoch int32) (Route, bool) {
	for steps := 0; cur != target; steps++ {
		if steps > t.g.NumLinks() {
			return nil, false
		}
		best := topology.LinkID(-1)
		var bd Dist
		for _, lid := range t.g.Out(cur) {
			hi := t.nodeIdx[t.g.Links[lid].Dst]
			if hi < 0 {
				continue
			}
			hd := dist[hi]
			if !hd.Reachable() {
				continue
			}
			cd := hd.Add(t.weight(lid, epoch))
			if best < 0 || cd.Less(bd) || (cd == bd && lid < best) {
				best, bd = lid, cd
			}
		}
		if best < 0 {
			return nil, false
		}
		r = append(r, pipes.ID(best))
		if t.owner[best] != int32(t.shard) {
			return r, true
		}
		cur = t.g.Links[best].Dst
	}
	return r, true
}

// Lookup implements Table: the route segment from src's home up to and
// including the first foreign pipe (or the full route when it never leaves
// the shard), under the current epoch. A seed fetch failure is a control
// plane failure, not a routing miss, and panics loudly rather than silently
// dropping traffic as unreachable.
func (t *ShardTable) Lookup(src, dst pipes.VN) (Route, bool) {
	if int(src) >= len(t.vnHome) || int(dst) >= len(t.vnHome) || src < 0 || dst < 0 {
		return nil, false
	}
	if src == dst {
		return Route{}, true
	}
	target := t.vnHome[dst]
	dist, err := t.field(t.epoch, target)
	if err != nil {
		panic(fmt.Sprintf("bind: shard table lookup %d->%d: %v", src, dst, err))
	}
	start := t.vnHome[src]
	if start == target {
		return Route{}, true
	}
	ci := t.nodeIdx[start]
	if ci < 0 || !dist[ci].Reachable() {
		return nil, false
	}
	return t.routeFrom(nil, start, target, dist, t.epoch)
}

// Extend grows a tunneled packet's route under its pinned epoch: while the
// route's last pipe is owned by this shard and does not yet reach dst's home,
// append this shard's next segment. Called on the receiving shard before the
// packet is applied, so synchronization pricing sees the extended route.
func (t *ShardTable) Extend(r Route, epoch int32, dst pipes.VN) (Route, error) {
	if len(r) == 0 || int(dst) >= len(t.vnHome) || dst < 0 {
		return r, nil
	}
	last := r[len(r)-1]
	if t.owner[last] != int32(t.shard) {
		return r, nil // a later shard's segment; not ours to extend
	}
	cur := t.g.Links[last].Dst
	target := t.vnHome[dst]
	if cur == target {
		return r, nil
	}
	dist, err := t.field(epoch, target)
	if err != nil {
		return nil, err
	}
	ext, ok := t.routeFrom(r, cur, target, dist, epoch)
	if !ok {
		return nil, fmt.Errorf("bind: shard %d cannot extend route toward VN %d (node %d) at epoch %d", t.shard, dst, target, epoch)
	}
	return ext, nil
}

// NumVNs implements Table.
func (t *ShardTable) NumVNs() int { return len(t.vnHome) }

// SummaryOracle is the coordinator-side source of frontier summaries: exact
// global distance fields per (reroute epoch, target), over graphs with each
// epoch's down links degraded to Infinity latency — the same degradation the
// monolithic reroute applies. Epoch graphs and their per-target fields are
// both kept in bounded LRUs. It serves every shard's TRouteReq; the caller
// (the coordinator drive loop) is single-threaded, so the oracle does not
// lock.
type SummaryOracle struct {
	g *topology.Graph
	// DownSet returns the links down at the given epoch (nil for epoch 0).
	downSet  func(epoch int32) ([]topology.LinkID, error)
	fieldCap int
	epochCap int
	engines  map[int32]*destEngine
	order    []int32 // most-recently-used first
}

// NewSummaryOracle builds an oracle over the full graph. downSet may be nil
// when the run has no reroutes; epochCap bounds cached epoch graphs and
// fieldCap the per-epoch distance fields (≤ 0 picks defaults).
func NewSummaryOracle(g *topology.Graph, downSet func(epoch int32) ([]topology.LinkID, error), epochCap, fieldCap int) *SummaryOracle {
	if epochCap <= 0 {
		epochCap = 4
	}
	if fieldCap <= 0 {
		// Same lazy-materialization argument as NewShardTable: the cap must
		// exceed the workload's distinct paged targets or every TRouteReq
		// rebuilds a field.
		fieldCap = 4096
	}
	return &SummaryOracle{g: g, downSet: downSet, fieldCap: fieldCap, epochCap: epochCap, engines: map[int32]*destEngine{}}
}

// engine returns the per-epoch distance engine, building the epoch's
// degraded graph on first use.
func (o *SummaryOracle) engine(epoch int32) (*destEngine, error) {
	if e, ok := o.engines[epoch]; ok {
		for i, ep := range o.order {
			if ep == epoch {
				o.order = append(o.order[:i], o.order[i+1:]...)
				break
			}
		}
		o.order = append([]int32{epoch}, o.order...)
		return e, nil
	}
	g := o.g
	if epoch > 0 {
		if o.downSet == nil {
			return nil, fmt.Errorf("bind: summary oracle has no down-set source for epoch %d", epoch)
		}
		down, err := o.downSet(epoch)
		if err != nil {
			return nil, err
		}
		if len(down) > 0 {
			g = g.Clone()
			for _, lid := range down {
				if lid < 0 || int(lid) >= len(g.Links) {
					return nil, fmt.Errorf("bind: epoch %d down link %d out of range", epoch, lid)
				}
				g.Links[lid].Attr.LatencySec = InfinityLatencySec
			}
		}
	} else if epoch < 0 {
		return nil, fmt.Errorf("bind: negative reroute epoch %d", epoch)
	}
	e := newDestEngine(g, o.fieldCap)
	o.engines[epoch] = e
	o.order = append([]int32{epoch}, o.order...)
	if len(o.order) > o.epochCap {
		victim := o.order[len(o.order)-1]
		o.order = o.order[:len(o.order)-1]
		delete(o.engines, victim)
	}
	return e, nil
}

// Seeds returns the global distances from the given nodes to target at the
// given epoch, in the given order.
func (o *SummaryOracle) Seeds(epoch int32, target topology.NodeID, nodes []topology.NodeID) ([]Dist, error) {
	if target < 0 || int(target) >= o.g.NumNodes() {
		return nil, fmt.Errorf("bind: summary target node %d out of range", target)
	}
	e, err := o.engine(epoch)
	if err != nil {
		return nil, err
	}
	dist := e.distTo(target)
	out := make([]Dist, len(nodes))
	for i, n := range nodes {
		if n < 0 || int(n) >= len(dist) {
			return nil, fmt.Errorf("bind: summary node %d out of range", n)
		}
		out[i] = dist[n]
	}
	return out, nil
}

// SeedFuncFor adapts the oracle to one shard's Summary node list — the
// in-process SeedFunc used by tests and same-process federations.
func (o *SummaryOracle) SeedFuncFor(nodes []topology.NodeID) SeedFunc {
	fixed := append([]topology.NodeID(nil), nodes...)
	return func(epoch int32, target topology.NodeID) ([]Dist, error) {
		return o.Seeds(epoch, target, fixed)
	}
}
