package bind

// Destination-rooted route computation with integer weights — the canonical
// routing policy shared by every execution mode.
//
// The policy: the distance of a path is the lexicographic pair
// (total latency in integer nanoseconds, hop count); the next hop out of
// node n toward target t is the out-link minimizing weight(l) + dist(head(l), t),
// ties broken by smallest link ID. Integer arithmetic makes path sums
// associative, so a distance computed by a reverse Dijkstra on the full
// graph and one computed from a shard-local subgraph seeded with frontier
// summaries agree bit-for-bit — which is what lets a federated worker
// reproduce exactly the next-hops the global matrix would have picked
// (internal/bind/shard.go builds on this).

import (
	"container/heap"
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

// Add extends d by one link of the given latency, saturating so Infinity-
// weighted links (dynamics' down-link degradation) cannot overflow.
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

// LinkLat is the canonical integer weight of a link: its propagation
// latency converted to nanoseconds exactly as the emulation's pipes convert
// it. Every route computation — global or shard-local — must use this and
// only this conversion, or tie-breaks diverge across modes.
func LinkLat(l topology.Link) vtime.Duration {
	return vtime.DurationOf(l.Attr.LatencySec)
}

// ReverseIndex returns, per node, the IDs of links entering it. Build it
// once per graph and share it across DistToNode calls.
func ReverseIndex(g *topology.Graph) [][]topology.LinkID {
	in := make([][]topology.LinkID, g.NumNodes())
	for _, l := range g.Links {
		in[l.Dst] = append(in[l.Dst], l.ID)
	}
	return in
}

// destItem is a frontier entry of the reverse Dijkstra.
type destItem struct {
	node topology.NodeID
	d    Dist
}

type destPQ []destItem

func (p destPQ) Len() int { return len(p) }
func (p destPQ) Less(i, j int) bool {
	if p[i].d != p[j].d {
		return p[i].d.Less(p[j].d)
	}
	return p[i].node < p[j].node
}
func (p destPQ) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *destPQ) Push(x any)   { *p = append(*p, x.(destItem)) }
func (p *destPQ) Pop() any     { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// DistToNode computes, for every node, the canonical distance to target:
// one reverse Dijkstra over the incoming-link index. The result is the
// unique policy distance — independent of heap pop order — so any two
// computations of it agree exactly.
func DistToNode(g *topology.Graph, rev [][]topology.LinkID, target topology.NodeID) []Dist {
	dist := make([]Dist, g.NumNodes())
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[target] = Dist{}
	var q destPQ
	heap.Push(&q, destItem{target, Dist{}})
	done := make([]bool, g.NumNodes())
	for q.Len() > 0 {
		it := heap.Pop(&q).(destItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, lid := range rev[it.node] {
			l := g.Links[lid]
			nd := it.d.Add(LinkLat(l))
			if nd.Less(dist[l.Src]) {
				dist[l.Src] = nd
				heap.Push(&q, destItem{l.Src, nd})
			}
		}
	}
	return dist
}

// NextHop picks the canonical next link out of n toward the target whose
// distance field is dist: the out-link minimizing weight + downstream
// distance, smallest link ID on ties. It returns -1 when n has no path.
func NextHop(g *topology.Graph, n topology.NodeID, dist []Dist) topology.LinkID {
	best := topology.LinkID(-1)
	var bd Dist
	for _, lid := range g.Out(n) {
		l := g.Links[lid]
		hd := dist[l.Dst]
		if !hd.Reachable() {
			continue
		}
		cd := hd.Add(LinkLat(l))
		if best < 0 || cd.Less(bd) || (cd == bd && lid < best) {
			best, bd = lid, cd
		}
	}
	return best
}

// WalkRoute extracts the canonical route from src to target by greedy
// NextHop steps. Returns nil when target is unreachable from src; an empty
// route when src == target.
func WalkRoute(g *topology.Graph, src, target topology.NodeID, dist []Dist) Route {
	if src == target {
		return Route{}
	}
	if !dist[src].Reachable() {
		return nil
	}
	var r Route
	cur := src
	// The walk strictly decreases (lat, hops) — hops alone when a link has
	// zero latency — so it terminates; the cap is pure defense.
	for steps := 0; cur != target; steps++ {
		if steps > g.NumLinks() {
			return nil
		}
		lid := NextHop(g, cur, dist)
		if lid < 0 {
			return nil
		}
		r = append(r, pipes.ID(lid))
		cur = g.Links[lid].Dst
	}
	return r
}

// destEngine caches per-target distance fields over one graph, the shared
// machinery behind Matrix, Cache, and Lazy. Entries are evicted LRU; results
// are deterministic regardless of eviction order.
type destEngine struct {
	g      *topology.Graph
	rev    [][]topology.LinkID
	fields *lru[topology.NodeID, []Dist]
}

func newDestEngine(g *topology.Graph, capacity int) *destEngine {
	return &destEngine{g: g, rev: ReverseIndex(g), fields: newLRU[topology.NodeID, []Dist](capacity)}
}

// distTo returns the distance field toward target, computing and caching it
// on a miss.
func (e *destEngine) distTo(target topology.NodeID) []Dist {
	if dist, ok := e.fields.get(target); ok {
		return dist
	}
	dist := DistToNode(e.g, e.rev, target)
	e.fields.put(target, dist)
	return dist
}

func (e *destEngine) invalidate() { e.fields.reset() }
