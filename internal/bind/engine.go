package bind

// The route engine: the canonical routing policy, computed one way for every
// table and every execution mode (DESIGN.md "Routing: one policy, one
// engine" has the argument in full).
//
// The policy: the distance of a path is the lexicographic pair
// (total latency in integer nanoseconds, hop count); the next hop out of
// node n toward target t is the out-link minimizing weight(l) + dist(head(l), t),
// ties broken by smallest link ID. A failed link weighs InfinityLatencySec
// instead of its own latency. Integer arithmetic makes path sums
// associative, so a distance computed over the full graph and one computed
// over a shard's links seeded with its frontier's global distances agree
// bit-for-bit — which is what lets a federated worker reproduce exactly the
// next-hops the global matrix picks.

import (
	"fmt"
	"math"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Dist is a path distance under the canonical policy: total latency in
// integer nanoseconds, then hop count, compared lexicographically.
type Dist struct {
	Lat  vtime.Duration
	Hops int32
}

// Unreachable is the distance of a node with no path to the target.
var Unreachable = Dist{Lat: vtime.Duration(math.MaxInt64), Hops: math.MaxInt32}

// Reachable reports whether d is a finite distance.
func (d Dist) Reachable() bool { return d.Lat != Unreachable.Lat || d.Hops != Unreachable.Hops }

// Less orders distances lexicographically: latency first, then hops.
func (d Dist) Less(o Dist) bool {
	if d.Lat != o.Lat {
		return d.Lat < o.Lat
	}
	return d.Hops < o.Hops
}

// Add extends d by one link of the given latency, saturating so chains of
// Infinity-weighted down links cannot overflow.
func (d Dist) Add(lat vtime.Duration) Dist {
	if !d.Reachable() {
		return Unreachable
	}
	s := d.Lat + lat
	if s < d.Lat { // overflow
		s = vtime.Duration(math.MaxInt64 - 1)
	}
	h := d.Hops
	if h < math.MaxInt32-1 {
		h++
	}
	return Dist{Lat: s, Hops: h}
}

// LinkLat is the canonical integer weight of a live link: its propagation
// latency converted to nanoseconds exactly as the emulation's pipes convert
// it. It is the only conversion the engine uses, or tie-breaks would diverge
// across modes.
func LinkLat(l topology.Link) vtime.Duration {
	return vtime.DurationOf(l.Attr.LatencySec)
}

// InfinityLatencySec is the latency a failed link is priced at: routes still
// traverse it when nothing else reaches the target (traffic blackholes at
// the down pipe) but any live path is preferred. It must equal
// routing.Infinity — routing sits above bind in the import graph, so the
// constant lives here and the tests pin the two together.
const InfinityLatencySec = 1e6

var downLat = vtime.DurationOf(InfinityLatencySec)

// linkSet is the set of failed links one reroute epoch routes around; nil
// when none are down.
type linkSet map[topology.LinkID]bool

func newLinkSet(links []topology.LinkID) linkSet {
	if len(links) == 0 {
		return nil
	}
	s := make(linkSet, len(links))
	for _, lid := range links {
		s[lid] = true
	}
	return s
}

// weigh is the policy's link weight: lat while the link is up, the Infinity
// latency once the epoch has it down.
func (s linkSet) weigh(lid topology.LinkID, lat vtime.Duration) vtime.Duration {
	if s != nil && s[lid] {
		return downLat
	}
	return lat
}

// cell is one covered node's entry in a distance field: its distance to the
// field's target and, in what would be a Dist's padding, the next-hop memo —
// the out-link walk picked the first time a route crossed the node. The pick
// depends on the node, the target, the epoch's down set and the view, never
// on where the route began, so every later route through the node reads it
// back. The memo is part of the field: it is filled in place and is evicted,
// reset and recomputed with it.
type cell struct {
	lat  vtime.Duration
	hops int32
	next int32 // link ID, or one of the two sentinels below
}

const (
	noHop     int32 = -1 // scanned: no out-link reaches the target
	unscanned int32 = -2 // no walk has crossed the node yet
)

func (c cell) dist() Dist { return Dist{Lat: c.lat, Hops: c.hops} }

// inLink is one relaxation step of the reverse Dijkstra, flattened so the
// loop touches neither the graph nor the node index.
type inLink struct {
	src int32 // cover index of the link's tail
	lid int32
	lat vtime.Duration
}

type distItem struct {
	node int32 // cover index
	d    Dist
}

// engine computes canonical distance fields and routes over one ShardView of
// a graph: the whole graph under a single owner (fullView) for Matrix, Cache
// and SummaryOracle, one shard's slice of it for ShardTable. Fields are
// indexed by cover index — the view's nodes, densely renumbered — and cached
// per (reroute epoch, target's key) in the one bounded LRU, 16 bytes per
// covered node, next-hop memo included. An engine keeps scratch state between
// calls and must not be shared across goroutines.
type engine struct {
	g     *topology.Graph // the view's links under their global IDs
	shard int32
	owner []int32 // link ID -> owning shard, -1 = outside the view
	cover []int32 // node ID -> cover index, -1 = no view link touches it
	in    []inLink
	inOff []int32 // in[inOff[c]:inOff[c+1]] are the owned links entering cover node c

	summ  []topology.NodeID // the view's Summary: nodes whose global distances seed a field
	seeds SeedFunc

	fields   *lru[[]cell] // keyed by epoch<<32 | key(target)
	frontier topology.MinHeap[distItem]
	path     Route // walk's scratch buffer

	// Misses counts distance fields computed, SeedRPCs the summary fetches
	// among them, Scans the out-links walk evaluated to fill next-hop memos.
	Misses   uint64
	SeedRPCs uint64
	Scans    uint64
}

// fullView is the degenerate shard view of an unpartitioned world: one
// owner holds every link, so nothing is foreign and nothing needs seeds.
func fullView(g *topology.Graph) *ShardView {
	return &ShardView{Cores: 1, NumNodes: g.NumNodes(), NumLinks: g.NumLinks(),
		Links: g.Links, LinkOwner: make([]int32, g.NumLinks())}
}

// newEngine indexes the view, whose link IDs must lie inside its ID space. g
// must hold the view's links under their global IDs (the full graph or the
// view's Skeleton).
func newEngine(g *topology.Graph, view *ShardView, seeds SeedFunc, fieldCap int) *engine {
	e := &engine{
		g: g, shard: int32(view.Shard), summ: view.Summary, seeds: seeds,
		owner:  make([]int32, view.NumLinks),
		cover:  make([]int32, view.NumNodes),
		fields: newLRU[[]cell](fieldCap),
	}
	e.frontier.Less = func(a, b distItem) bool { return a.d.Less(b.d) }
	for i := range e.owner {
		e.owner[i] = -1
	}
	for i := range e.cover {
		e.cover[i] = -1
	}
	for i, l := range view.Links {
		e.owner[l.ID] = view.LinkOwner[i]
		e.cover[l.Src], e.cover[l.Dst] = 0, 0
	}
	n := int32(0)
	for i, c := range e.cover {
		if c == 0 {
			e.cover[i] = n
			n++
		}
	}
	// Group the owned links by head: count, prefix-sum, place.
	e.inOff = make([]int32, n+1)
	for i, l := range view.Links {
		if view.LinkOwner[i] == e.shard {
			e.inOff[e.cover[l.Dst]+1]++
		}
	}
	for c := int32(0); c < n; c++ {
		e.inOff[c+1] += e.inOff[c]
	}
	e.in = make([]inLink, e.inOff[n])
	next := append([]int32(nil), e.inOff[:n]...)
	for i, l := range view.Links {
		if view.LinkOwner[i] == e.shard {
			c := e.cover[l.Dst]
			e.in[next[c]] = inLink{src: e.cover[l.Src], lid: int32(l.ID), lat: LinkLat(l)}
			next[c]++
		}
	}
	return e
}

// key canonicalizes a route target. A target t whose only in-link is r→t is a
// leaf: dist(n, t) = dist(n, r) + w(r→t) for every n ≠ t, and a constant on
// every candidate moves no argmin and no tie (DESIGN.md §9 "Leaf targets"), so
// r's field serves t and the route is the walk to r plus acc, that access pipe.
// Only a view that owns every link it has slots for can say so: its in-link
// index is then complete and its walks never stop early. Any other target is
// its own key, and acc is -1.
func (e *engine) key(t topology.NodeID) (r topology.NodeID, acc int32) {
	if len(e.in) == len(e.owner) {
		if c := e.cover[t]; c >= 0 && e.inOff[c+1]-e.inOff[c] == 1 {
			acc = e.in[e.inOff[c]].lid
			return e.g.Links[acc].Src, acc
		}
	}
	return t, -1
}

// at reads node n's distance out of a field.
func (e *engine) at(f []cell, n topology.NodeID) Dist {
	if c := e.cover[n]; c >= 0 {
		return f[c].dist()
	}
	return Unreachable
}

// field returns the distance field toward target under the epoch's down
// set, computing and caching it on a miss.
func (e *engine) field(epoch int32, target topology.NodeID, down linkSet) ([]cell, error) {
	key := uint64(uint32(epoch))<<32 | uint64(uint32(target))
	if f, ok := e.fields.get(key); ok {
		return f, nil
	}
	f, err := e.compute(nil, epoch, target, down)
	if err != nil {
		return nil, err
	}
	e.fields.put(key, f)
	return f, nil
}

// compute is the one reverse Dijkstra: over the owned links, from the target
// and — when the view has a Summary — from its nodes' exact global distances,
// so every covered node ends at its exact global distance. The field is the
// unique fixed point of the policy, whatever order equal keys pop in. Every
// memo starts unscanned. Only the seed fetch can fail. A non-nil into is a
// field of this engine the caller is done with; it is overwritten in place of
// allocating.
func (e *engine) compute(into []cell, epoch int32, target topology.NodeID, down linkSet) ([]cell, error) {
	e.Misses++
	f := into
	if f == nil {
		f = make([]cell, len(e.inOff)-1)
	}
	for i := range f {
		f[i] = cell{lat: Unreachable.Lat, hops: Unreachable.Hops, next: unscanned}
	}
	q := &e.frontier
	q.Reset()
	seed := func(n topology.NodeID, d Dist) {
		if c := e.cover[n]; c >= 0 && d.Less(f[c].dist()) {
			f[c].lat, f[c].hops = d.Lat, d.Hops
			q.Push(distItem{c, d})
		}
	}
	if len(e.summ) > 0 {
		e.SeedRPCs++
		sd, err := e.seeds(epoch, target)
		if err != nil {
			return nil, fmt.Errorf("bind: shard %d summary seeds for node %d epoch %d: %w", e.shard, target, epoch, err)
		}
		if len(sd) != len(e.summ) {
			return nil, fmt.Errorf("bind: shard %d got %d summary seeds, want %d", e.shard, len(sd), len(e.summ))
		}
		for i, s := range e.summ {
			seed(s, sd[i])
		}
	}
	seed(target, Dist{})
	for q.Len() > 0 {
		it := q.Pop()
		if it.d != f[it.node].dist() {
			continue // superseded by a shorter entry
		}
		for _, l := range e.in[e.inOff[it.node]:e.inOff[it.node+1]] {
			if nd := it.d.Add(down.weigh(topology.LinkID(l.lid), l.lat)); nd.Less(f[l.src].dist()) {
				f[l.src].lat, f[l.src].hops = nd.Lat, nd.Hops
				q.Push(distItem{l.src, nd})
			}
		}
	}
	return f, nil
}

// walk is the one next-hop argmin: the canonical route from cur toward
// target, stopping after the first pipe another shard owns (its owner extends
// the route on arrival; with one owner the walk always reaches target). The
// candidates at cur are all of its out-links — under source-node ownership a
// local node's are all in the view and a frontier node's are the shipped
// fringe — so the pick is the global pick. A covered node's out-links are
// scanned once per field: the pick goes into the node's cell and every later
// walk that crosses the node reads it back, so a route costs its length. ok
// is false when target is unreachable. The result is the engine's scratch
// buffer, good until the next walk: callers copy it out.
func (e *engine) walk(cur, target topology.NodeID, f []cell, down linkSet) (Route, bool) {
	e.path = e.path[:0]
	for cur != target {
		// Each step strictly decreases (lat, hops), so the walk terminates;
		// the cap is pure defense.
		if len(e.path) > len(e.owner) {
			return nil, false
		}
		c := e.cover[cur]
		next := unscanned
		if c >= 0 {
			next = f[c].next
		}
		if next == unscanned {
			next = noHop
			var bd Dist
			out := e.g.Out(cur)
			e.Scans += uint64(len(out))
			for _, lid := range out {
				l := &e.g.Links[lid]
				hd := e.at(f, l.Dst)
				if !hd.Reachable() {
					continue
				}
				cd := hd.Add(down.weigh(lid, LinkLat(*l)))
				if next < 0 || cd.Less(bd) || (cd == bd && int32(lid) < next) {
					next, bd = int32(lid), cd
				}
			}
			if c >= 0 {
				f[c].next = next
			}
		}
		if next < 0 {
			return nil, false
		}
		e.path = append(e.path, pipes.ID(next))
		if e.owner[next] != e.shard {
			break
		}
		cur = e.g.Links[next].Dst
	}
	return e.path, true
}

// route resolves the canonical route from cur toward target under the epoch's
// down set and returns prefix extended by it, exact-size: the walk to the
// target's key, then its access pipe — or nothing from the target itself, the
// one source the leaf sum does not hold for. ok is false when target is
// unreachable; err is a failed seed fetch.
func (e *engine) route(prefix Route, cur, target topology.NodeID, epoch int32, down linkSet) (Route, bool, error) {
	r, acc := e.key(target)
	f, err := e.field(epoch, r, down)
	if err != nil {
		return nil, false, err
	}
	var seg Route
	if cur != target {
		ok := false
		if seg, ok = e.walk(cur, r, f, down); !ok {
			return nil, false, nil
		}
		if acc >= 0 {
			seg = append(seg, pipes.ID(acc))
			e.path = seg // keep the buffer if the append grew it
		}
	}
	out := make(Route, len(prefix)+len(seg))
	copy(out[copy(out, prefix):], seg)
	return out, true, nil
}
