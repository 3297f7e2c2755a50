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

// fieldKey identifies one cached distance field.
type fieldKey struct {
	epoch  int32
	target topology.NodeID
}

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
// per (reroute epoch, target) in the one bounded LRU. An engine keeps scratch
// state between calls and must not be shared across goroutines.
type engine struct {
	g     *topology.Graph // the view's links under their global IDs
	shard int32
	owner []int32 // link ID -> owning shard, -1 = outside the view
	cover []int32 // node ID -> cover index, -1 = no view link touches it
	in    []inLink
	inOff []int32 // in[inOff[c]:inOff[c+1]] are the owned links entering cover node c

	summ  []topology.NodeID // the view's Summary: nodes whose global distances seed a field
	seeds SeedFunc

	fields   *lru[fieldKey, []Dist]
	frontier topology.MinHeap[distItem]
	path     Route // walk's scratch buffer

	// Misses counts distance fields computed; SeedRPCs the summary fetches
	// among them.
	Misses   uint64
	SeedRPCs uint64
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
		fields: newLRU[fieldKey, []Dist](fieldCap),
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

// at reads node n's distance out of a field.
func (e *engine) at(dist []Dist, n topology.NodeID) Dist {
	if c := e.cover[n]; c >= 0 {
		return dist[c]
	}
	return Unreachable
}

// field returns the distance field toward target under the epoch's down
// set, computing and caching it on a miss.
func (e *engine) field(epoch int32, target topology.NodeID, down linkSet) ([]Dist, error) {
	key := fieldKey{epoch, target}
	if dist, ok := e.fields.get(key); ok {
		return dist, nil
	}
	dist, err := e.compute(epoch, target, down)
	if err != nil {
		return nil, err
	}
	e.fields.put(key, dist)
	return dist, nil
}

// compute is the one reverse Dijkstra: over the owned links, from the target
// and — when the view has a Summary — from its nodes' exact global distances,
// so every covered node ends at its exact global distance. The field is the
// unique fixed point of the policy, whatever order equal keys pop in. Only
// the seed fetch can fail.
func (e *engine) compute(epoch int32, target topology.NodeID, down linkSet) ([]Dist, error) {
	e.Misses++
	dist := make([]Dist, len(e.inOff)-1)
	for i := range dist {
		dist[i] = Unreachable
	}
	q := &e.frontier
	q.Reset()
	seed := func(n topology.NodeID, d Dist) {
		if c := e.cover[n]; c >= 0 && d.Less(dist[c]) {
			dist[c] = d
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
		if it.d != dist[it.node] {
			continue // superseded by a shorter entry
		}
		for _, l := range e.in[e.inOff[it.node]:e.inOff[it.node+1]] {
			if nd := it.d.Add(down.weigh(topology.LinkID(l.lid), l.lat)); nd.Less(dist[l.src]) {
				dist[l.src] = nd
				q.Push(distItem{l.src, nd})
			}
		}
	}
	return dist, nil
}

// walk is the one next-hop argmin: it extends prefix by the canonical route
// from cur toward target, stopping after the first pipe another shard owns
// (its owner extends the route on arrival; with one owner the walk always
// reaches target). The candidates at cur are all of its out-links — under
// source-node ownership a local node's are all in the view and a frontier
// node's are the shipped fringe — so the pick is the global pick. ok is false
// when target is unreachable. The result is a fresh exact-size slice.
func (e *engine) walk(prefix Route, cur, target topology.NodeID, dist []Dist, down linkSet) (Route, bool) {
	e.path = e.path[:0]
	for cur != target {
		// Each step strictly decreases (lat, hops), so the walk terminates;
		// the cap is pure defense.
		if len(e.path) > len(e.owner) {
			return nil, false
		}
		best := topology.LinkID(-1)
		var bd Dist
		for _, lid := range e.g.Out(cur) {
			l := &e.g.Links[lid]
			hd := e.at(dist, l.Dst)
			if !hd.Reachable() {
				continue
			}
			cd := hd.Add(down.weigh(lid, LinkLat(*l)))
			if best < 0 || cd.Less(bd) || (cd == bd && lid < best) {
				best, bd = lid, cd
			}
		}
		if best < 0 {
			return nil, false
		}
		e.path = append(e.path, pipes.ID(best))
		if e.owner[best] != e.shard {
			break
		}
		cur = e.g.Links[best].Dst
	}
	r := make(Route, len(prefix)+len(e.path))
	copy(r[copy(r, prefix):], e.path)
	return r, true
}

// lookup resolves the route segment between two homes for a table's Lookup:
// an unreachable target is ok=false, a failed seed fetch is a control plane
// failure — not a routing miss — and panics loudly rather than silently
// dropping traffic as unreachable.
func (e *engine) lookup(from, to topology.NodeID, epoch int32, down linkSet) (Route, bool) {
	dist, err := e.field(epoch, to, down)
	if err != nil {
		panic(fmt.Sprintf("bind: route lookup %d->%d: %v", from, to, err))
	}
	return e.walk(nil, from, to, dist, down)
}
