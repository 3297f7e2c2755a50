package bind

// Sharded world distribution: each federated worker holds only its shard's
// view of the world — owned links, the cut frontier, and the fringe links
// needed to route across it — and runs the route engine over that view, its
// distance fields seeded with the frontier's global distances. DESIGN.md
// "Routing: one policy, one engine" has the decomposition argument: why the
// seeded shard-local fields equal the global ones bit for bit, and why the
// per-shard route segments concatenate to the monolithic route.

import (
	"fmt"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// ShardView is the slice of the world one shard materializes: its owned
// links, incoming cut links (foreign links delivering into its region — the
// sync plan needs their owners), and the fringe (every out-link of every
// frontier node, so the walk at a frontier node sees the full global candidate
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

// ShardTable is the shard-local routing table: the engine over one shard
// view, its fields seeded with frontier summaries fetched on demand
// (SeedFunc). Lookup produces the route segment up to and including the
// first foreign pipe; Extend grows a tunneled packet's route the same way on
// the receiving shard. Packets keep the reroute epoch they were injected
// under, so in-flight routes stay exactly the whole-graph route at
// injection time. Misses and SeedRPCs count the fields computed and the
// summaries fetched for them.
type ShardTable struct {
	*engine
	vnHome []topology.NodeID
	epoch  int32
	downs  []linkSet // per-epoch down sets
}

// NewShardTable builds the table for one shard. g must contain the view's
// links under their global IDs (a ShardView.Skeleton, or the full graph);
// vnHome is the global VN→home mapping; fieldCap bounds the cached distance
// fields (≤ 0 picks a default sized for a bounded-target workload).
func NewShardTable(g *topology.Graph, view *ShardView, vnHome []topology.NodeID, seeds SeedFunc, fieldCap int) (*ShardTable, error) {
	for _, l := range view.Links {
		if l.ID < 0 || int(l.ID) >= view.NumLinks {
			return nil, fmt.Errorf("bind: shard view link ID %d outside %d slots", l.ID, view.NumLinks)
		}
	}
	return &ShardTable{engine: newEngine(g, view, seeds, fieldCap), vnHome: vnHome, downs: []linkSet{nil}}, nil
}

// Epoch reports the current reroute epoch (0 before any reroute).
func (t *ShardTable) Epoch() int32 { return t.epoch }

// SetEpochs installs the full reroute schedule up front: sets[e] is the
// down-set in force at epoch e (sets[0] nil or empty, the pristine world;
// dynamics.EnumerateReroutes produces exactly this shape). The current epoch
// is unchanged — Lookup keeps resolving under the epochs this shard's own
// replay has reached — but the table can serve distance fields for *any*
// scheduled epoch, which Extend needs: a faster peer may tunnel a packet
// injected under a reroute this shard has not fired yet.
func (t *ShardTable) SetEpochs(sets [][]topology.LinkID) {
	t.downs = make([]linkSet, max(len(sets), 1))
	for e, set := range sets {
		t.downs[e] = newLinkSet(set)
	}
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

// Lookup implements Table: the route segment from src's home up to and
// including the first foreign pipe (or the full route when it never leaves
// the shard), under the current epoch.
func (t *ShardTable) Lookup(src, dst pipes.VN) (Route, bool) {
	if int(src) >= len(t.vnHome) || int(dst) >= len(t.vnHome) || src < 0 || dst < 0 {
		return nil, false
	}
	if src == dst {
		return Route{}, true
	}
	r, ok, err := t.route(nil, t.vnHome[src], t.vnHome[dst], t.epoch, t.downs[t.epoch])
	if err != nil {
		// A failed seed fetch is a control plane failure, not a routing miss:
		// fail loudly rather than silently drop traffic as unreachable.
		panic(fmt.Sprintf("bind: route lookup VN %d->%d: %v", src, dst, err))
	}
	return r, ok
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
	if t.owner[last] != t.shard {
		return r, nil // a later shard's segment; not ours to extend
	}
	cur := t.g.Links[last].Dst
	target := t.vnHome[dst]
	if cur == target {
		return r, nil
	}
	if epoch < 0 || int(epoch) >= len(t.downs) {
		return nil, fmt.Errorf("bind: shard %d asked for unknown reroute epoch %d (current %d)", t.shard, epoch, t.epoch)
	}
	ext, ok, err := t.route(r, cur, target, epoch, t.downs[epoch])
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("bind: shard %d cannot extend route toward VN %d (node %d) at epoch %d", t.shard, dst, target, epoch)
	}
	return ext, nil
}

// NumVNs implements Table.
func (t *ShardTable) NumVNs() int { return len(t.vnHome) }

// SummaryOracle is the coordinator-side source of frontier summaries: the
// engine over the whole graph, serving exact global distance fields per
// (reroute epoch, target) with each epoch's down links priced at Infinity
// latency — what the monolithic reroute does. Fields and down sets are kept
// in bounded LRUs. It serves every shard's TRouteReq; the caller (the
// coordinator drive loop) is single-threaded, so the oracle does not lock.
type SummaryOracle struct {
	eng *engine
	// downSet returns the links down at the given epoch (nil for epoch 0).
	downSet func(epoch int32) ([]topology.LinkID, error)
	downs   *lru[linkSet] // keyed by epoch
}

// NewSummaryOracle builds an oracle over the full graph. downSet may be nil
// when the run has no reroutes; epochCap bounds the cached down sets and
// fieldCap the distance fields across all epochs (≤ 0 picks defaults).
func NewSummaryOracle(g *topology.Graph, downSet func(epoch int32) ([]topology.LinkID, error), epochCap, fieldCap int) *SummaryOracle {
	if epochCap <= 0 {
		epochCap = 4
	}
	return &SummaryOracle{eng: newEngine(g, fullView(g), nil, fieldCap), downSet: downSet, downs: newLRU[linkSet](epochCap)}
}

// downAt returns the epoch's down set, fetching and checking it on first use.
func (o *SummaryOracle) downAt(epoch int32) (linkSet, error) {
	if epoch < 0 {
		return nil, fmt.Errorf("bind: negative reroute epoch %d", epoch)
	}
	if epoch == 0 {
		return nil, nil
	}
	if ds, ok := o.downs.get(uint64(epoch)); ok {
		return ds, nil
	}
	if o.downSet == nil {
		return nil, fmt.Errorf("bind: summary oracle has no down-set source for epoch %d", epoch)
	}
	down, err := o.downSet(epoch)
	if err != nil {
		return nil, err
	}
	for _, lid := range down {
		if lid < 0 || int(lid) >= len(o.eng.owner) {
			return nil, fmt.Errorf("bind: epoch %d down link %d out of range", epoch, lid)
		}
	}
	ds := newLinkSet(down)
	o.downs.put(uint64(epoch), ds)
	return ds, nil
}

// Seeds returns the global distances from the given nodes to target at the
// given epoch, in the given order.
func (o *SummaryOracle) Seeds(epoch int32, target topology.NodeID, nodes []topology.NodeID) ([]Dist, error) {
	if target < 0 || int(target) >= len(o.eng.cover) {
		return nil, fmt.Errorf("bind: summary target node %d out of range", target)
	}
	down, err := o.downAt(epoch)
	if err != nil {
		return nil, err
	}
	r, acc := o.eng.key(target)
	f, err := o.eng.field(epoch, r, down)
	if err != nil {
		return nil, err
	}
	var w vtime.Duration // a leaf's access pipe, priced under this epoch
	if acc >= 0 {
		w = down.weigh(topology.LinkID(acc), LinkLat(o.eng.g.Links[acc]))
	}
	out := make([]Dist, len(nodes))
	for i, n := range nodes {
		if n < 0 || int(n) >= len(o.eng.cover) {
			return nil, fmt.Errorf("bind: summary node %d out of range", n)
		}
		out[i] = o.eng.at(f, n)
		if n == target {
			out[i] = Dist{}
		} else if acc >= 0 {
			out[i] = out[i].Add(w)
		}
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
