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

	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// ShardView is the slice of the world one shard materializes: its owned
// links, incoming cut links (foreign links delivering into its region — the
// shard's sync inputs need their owners), and the fringe (every out-link of
// every frontier node, so the walk at a frontier node sees the full global
// candidate set). Node and link IDs are global; the worker rebuilds a
// skeleton graph (topology.NewSkeleton) over the full ID spaces with only
// these links real.
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

// NewShardTable builds one shard's route Cache: the engine over its view,
// each field seeded with the frontier summary fetched on demand (seeds). g
// must contain the view's links under their global IDs (a ShardView.Skeleton,
// or the full graph); vnHome is the global VN→home mapping; fieldCap bounds
// the cached distance fields (≤ 0 picks a default sized for a bounded-target
// workload), and the cache keeps 16 routes per field, as NewCache does.
func NewShardTable(g *topology.Graph, view *ShardView, vnHome []topology.NodeID, seeds SeedFunc, fieldCap int) (*Cache, error) {
	if fieldCap <= 0 {
		fieldCap = defaultFieldCap
	}
	return newCache(newEngine(g, view, seeds, fieldCap), vnHome, 16*fieldCap), nil
}

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
