package bind

// Route computation: all-pairs shortest paths into a routing matrix, plus
// the bounded route cache (the paper's O(n lg n) storage alternative).

import (
	"container/heap"
	"fmt"
	"math"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

// Route is an ordered list of pipes a packet traverses from source VN to
// destination VN. Pipe IDs are the distilled topology's link IDs.
type Route []pipes.ID

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	node topology.NodeID
	dist float64
	seq  int // insertion tie-break for determinism
}

type pq []pqItem

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].seq < p[j].seq
}
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)   { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any     { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// linkWeight is the routing metric: propagation latency plus a small per-hop
// epsilon so equal-latency paths prefer fewer hops ("shortest path" in the
// paper). Deterministic across runs.
func linkWeight(l topology.Link) float64 {
	return l.Attr.LatencySec + 1e-6
}

// ShortestPaths runs Dijkstra from src over the directed graph and returns,
// for every node, the link taken to reach it on the shortest path tree
// (-1 for src/unreachable) and the distance.
func ShortestPaths(g *topology.Graph, src topology.NodeID) (prevLink []topology.LinkID, dist []float64) {
	n := g.NumNodes()
	dist = make([]float64, n)
	prevLink = make([]topology.LinkID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevLink[i] = -1
	}
	dist[src] = 0
	var q pq
	seq := 0
	heap.Push(&q, pqItem{src, 0, seq})
	done := make([]bool, n)
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, lid := range g.Out(it.node) {
			l := g.Links[lid]
			nd := it.dist + linkWeight(l)
			if nd < dist[l.Dst] {
				dist[l.Dst] = nd
				prevLink[l.Dst] = lid
				seq++
				heap.Push(&q, pqItem{l.Dst, nd, seq})
			}
		}
	}
	return prevLink, dist
}

// routeFromTree walks the shortest path tree backwards from dst to src,
// producing the forward pipe list. Returns nil when dst is unreachable.
func routeFromTree(g *topology.Graph, prevLink []topology.LinkID, src, dst topology.NodeID) Route {
	if src == dst {
		return Route{}
	}
	var rev []pipes.ID
	cur := dst
	for cur != src {
		lid := prevLink[cur]
		if lid < 0 {
			return nil
		}
		rev = append(rev, pipes.ID(lid))
		cur = g.Links[lid].Src
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Table resolves the pipe route between two VNs. The two implementations
// are the paper's §2.2 design points: a precomputed O(n²) matrix with fast
// indexing, and a hash cache of active-flow routes with on-demand Dijkstra.
type Table interface {
	// Lookup returns the route from src to dst VN; ok is false when no path
	// exists or the VNs are unknown.
	Lookup(src, dst pipes.VN) (Route, bool)
	// NumVNs reports how many VNs the table serves.
	NumVNs() int
}

// Matrix is the straightforward precomputed routing matrix: all-pairs
// canonical routes among VNs, O(n²) space, O(1) lookup. Scales to ~10,000
// VNs (§2.2). Routes follow the destination-rooted integer-weight policy
// (dest.go), so shard-local tables reproduce them exactly.
type Matrix struct {
	routes [][]Route // [src][dst]
}

// BuildMatrix computes the routing matrix for the given VN home nodes in g.
// vnHomes[v] is the topology node hosting VN v. One reverse Dijkstra per
// distinct destination home, one greedy walk per distinct home pair; VNs
// sharing a home pair share the route slice.
func BuildMatrix(g *topology.Graph, vnHomes []topology.NodeID) (*Matrix, error) {
	n := len(vnHomes)
	m := &Matrix{routes: make([][]Route, n)}
	rev := ReverseIndex(g)
	distByHome := map[topology.NodeID][]Dist{}
	for _, h := range vnHomes {
		if _, ok := distByHome[h]; !ok {
			distByHome[h] = DistToNode(g, rev, h)
		}
	}
	routeByPair := map[[2]topology.NodeID]Route{}
	for i := 0; i < n; i++ {
		m.routes[i] = make([]Route, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pair := [2]topology.NodeID{vnHomes[i], vnHomes[j]}
			r, ok := routeByPair[pair]
			if !ok {
				r = WalkRoute(g, vnHomes[i], vnHomes[j], distByHome[vnHomes[j]])
				routeByPair[pair] = r
			}
			if r == nil && vnHomes[i] != vnHomes[j] {
				return nil, fmt.Errorf("bind: VN %d cannot reach VN %d", i, j)
			}
			m.routes[i][j] = r
		}
	}
	return m, nil
}

// Lookup implements Table.
func (m *Matrix) Lookup(src, dst pipes.VN) (Route, bool) {
	if int(src) >= len(m.routes) || int(dst) >= len(m.routes) || src < 0 || dst < 0 {
		return nil, false
	}
	if src == dst {
		return Route{}, true
	}
	r := m.routes[src][dst]
	if r == nil {
		return nil, false
	}
	return r, true
}

// NumVNs implements Table.
func (m *Matrix) NumVNs() int { return len(m.routes) }

// Routes exposes the raw matrix for offline analysis (cross-traffic
// propagation, assignment metrics).
func (m *Matrix) Routes() [][]Route { return m.routes }

// Cache is the O(n lg n)-space alternative: a bounded hash cache of routes
// for active flows; misses compute the canonical route on demand (§2.2)
// from a bounded per-destination distance-field cache.
type Cache struct {
	g       *topology.Graph
	vnHomes []topology.NodeID
	eng     *destEngine
	routes  *lru[uint64, Route] // keyed by src<<32 | dst

	Hits   uint64
	Misses uint64
}

// NewCache builds a route cache over g with the given capacity (in routes).
func NewCache(g *topology.Graph, vnHomes []topology.NodeID, capacity int) *Cache {
	fieldCap := capacity / 16
	if fieldCap < 4 {
		fieldCap = 4
	}
	return &Cache{
		g:       g,
		vnHomes: vnHomes,
		eng:     newDestEngine(g, fieldCap),
		routes:  newLRU[uint64, Route](capacity),
	}
}

// Lookup implements Table. On a miss it computes the route with Dijkstra and
// caches it, evicting the least recently used route when full.
func (c *Cache) Lookup(src, dst pipes.VN) (Route, bool) {
	if int(src) >= len(c.vnHomes) || int(dst) >= len(c.vnHomes) || src < 0 || dst < 0 {
		return nil, false
	}
	if src == dst {
		return Route{}, true
	}
	key := uint64(src)<<32 | uint64(dst)
	if r, ok := c.routes.get(key); ok {
		c.Hits++
		return r, r != nil
	}
	c.Misses++
	r := WalkRoute(c.g, c.vnHomes[src], c.vnHomes[dst], c.eng.distTo(c.vnHomes[dst]))
	c.routes.put(key, r)
	return r, r != nil
}

// NumVNs implements Table.
func (c *Cache) NumVNs() int { return len(c.vnHomes) }

// Len reports the number of cached routes.
func (c *Cache) Len() int { return c.routes.len() }

// Invalidate drops all cached routes and distance fields. Call after the
// topology's routing changes (link failure, recomputed shortest paths).
func (c *Cache) Invalidate() {
	c.routes.reset()
	c.eng.invalidate()
}

// Lazy is a demand-paged routing table: no routes are computed until the
// first Lookup, and per-destination distance fields are kept in a bounded
// LRU. It is the coordinator-side table for sharded distribution — a
// federation coordinator needs a Binding (VN numbering, sync plans) but
// rarely a route, and a full Matrix at 10⁵ VNs is neither affordable nor
// needed. Lookups produce exactly the canonical routes Matrix would.
type Lazy struct {
	g       *topology.Graph
	vnHomes []topology.NodeID
	eng     *destEngine
}

// NewLazy builds a demand-paged table over g. fieldCap bounds the number of
// cached per-destination distance fields (≤ 0 picks a small default).
func NewLazy(g *topology.Graph, vnHomes []topology.NodeID, fieldCap int) *Lazy {
	if fieldCap <= 0 {
		fieldCap = 32
	}
	return &Lazy{g: g, vnHomes: vnHomes, eng: newDestEngine(g, fieldCap)}
}

// Lookup implements Table.
func (t *Lazy) Lookup(src, dst pipes.VN) (Route, bool) {
	if int(src) >= len(t.vnHomes) || int(dst) >= len(t.vnHomes) || src < 0 || dst < 0 {
		return nil, false
	}
	if src == dst {
		return Route{}, true
	}
	r := WalkRoute(t.g, t.vnHomes[src], t.vnHomes[dst], t.eng.distTo(t.vnHomes[dst]))
	return r, r != nil
}

// NumVNs implements Table.
func (t *Lazy) NumVNs() int { return len(t.vnHomes) }

// Invalidate drops the cached distance fields (after a reroute).
func (t *Lazy) Invalidate() { t.eng.invalidate() }
