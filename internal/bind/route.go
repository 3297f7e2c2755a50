package bind

// The whole-graph routing tables: the precomputed matrix and the bounded
// route cache, §2.2's two storage designs. Both are fronts for the route
// engine (engine.go) over the unpartitioned graph, so both hold exactly the
// canonical routes.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

// Route is an ordered list of pipes a packet traverses from source VN to
// destination VN. Pipe IDs are the distilled topology's link IDs.
type Route []pipes.ID

// Table resolves the pipe route between two VNs.
type Table interface {
	// Lookup returns the route from src to dst VN; ok is false when no path
	// exists or the VNs are unknown.
	Lookup(src, dst pipes.VN) (Route, bool)
	// NumVNs reports how many VNs the table serves.
	NumVNs() int
}

// Matrix is the straightforward precomputed routing matrix: the engine
// filled eagerly with all-pairs routes among VNs, O(n²) space, O(1) lookup.
// Building it is one distance field and n walks per distinct key among the
// homes — per attachment router, where VNs are leaves — and it stores 8 bytes
// of span per pair plus 4 per hop (DESIGN.md §9 has the cost model): at the
// paper's ~10,000 VNs (§2.2) 800 MB of spans and a few GB of hops, and past
// 2³² hops the build refuses. Read-only once built, so parallel shards share one.
type Matrix struct {
	n     int
	spans []span // [src*n+dst]; no pointers, so the collector never scans the n² of them
	arena Route  // every route's pipes, back to back
}

// span locates one route in the arena. Length 0 is the empty route between two
// VNs on one home, never "unreachable": a matrix with such a pair does not build.
type span struct{ off, n uint32 }

// BuildMatrix computes the routing matrix for the given VN home nodes in g.
// vnHomes[v] is the topology node hosting VN v.
func BuildMatrix(g *topology.Graph, vnHomes []topology.NodeID) (*Matrix, error) {
	return BuildMatrixDown(g, vnHomes, nil)
}

// BuildMatrixDown is BuildMatrix with the given links failed.
func BuildMatrixDown(g *topology.Graph, vnHomes []topology.NodeID, down []topology.LinkID) (*Matrix, error) {
	return newEngine(g, fullView(g), nil, 1).matrix(vnHomes, newLinkSet(down))
}

// arenaRoom refuses to grow a matrix's arena past a span's 32-bit offset.
func arenaRoom(used, need, vns int) error {
	if uint64(used)+uint64(need) > math.MaxUint32 {
		return fmt.Errorf("bind: the routing matrix of %d VNs passes 2^32 stored hops; bound it with a route cache (Options.RouteCache)", vns)
	}
	return nil
}

// matrix fills a Matrix from a whole-graph engine. Destinations are grouped by
// key: one distance field per key, computed into the same scratch field each
// time, one walk per (source, key), and per destination a copy of that segment
// plus its access pipe. A destination that is its own key is a group of one.
func (e *engine) matrix(vnHomes []topology.NodeID, down linkSet) (*Matrix, error) {
	n := len(vnHomes)
	m := &Matrix{n: n, spans: make([]span, n*n)}
	type dest struct {
		vn, acc int32
		key     topology.NodeID
	}
	dests := make([]dest, n)
	for j, to := range vnHomes {
		r, acc := e.key(to)
		dests[j] = dest{int32(j), acc, r}
	}
	slices.SortStableFunc(dests, func(a, b dest) int { return cmp.Compare(a.key, b.key) })
	var f []cell
	for len(dests) > 0 {
		r, k := dests[0].key, 1
		for k < len(dests) && dests[k].key == r {
			k++
		}
		group := dests[:k]
		dests = dests[k:]
		var err error
		if f, err = e.compute(f, 0, r, down); err != nil {
			return nil, err
		}
		if m.arena == nil {
			// Sized by the first key's mean route: exact on a symmetric world,
			// and append makes up the difference on any other.
			hops := 0
			for _, from := range vnHomes {
				if d := e.at(f, from); d.Reachable() {
					hops += int(d.Hops) + 1
				}
			}
			m.arena = make(Route, 0, min(uint64(hops)*uint64(n), math.MaxUint32))
		}
		for i, from := range vnHomes {
			seg, ok := e.walk(from, r, f, down)
			if err := arenaRoom(len(m.arena), k*(len(seg)+1), n); err != nil {
				return nil, err
			}
			for _, d := range group {
				if vnHomes[d.vn] == from {
					continue // one home: the empty route
				}
				if !ok {
					return nil, fmt.Errorf("bind: VN %d cannot reach VN %d", i, d.vn)
				}
				off := len(m.arena)
				if m.arena = append(m.arena, seg...); d.acc >= 0 {
					m.arena = append(m.arena, pipes.ID(d.acc))
				}
				m.spans[i*n+int(d.vn)] = span{uint32(off), uint32(len(m.arena) - off)}
			}
		}
	}
	return m, nil
}

// Lookup implements Table.
func (m *Matrix) Lookup(src, dst pipes.VN) (Route, bool) {
	if int(src) >= m.n || int(dst) >= m.n || src < 0 || dst < 0 {
		return nil, false
	}
	s := m.spans[int(src)*m.n+int(dst)] // src == dst: never written, the empty route
	return m.arena[s.off : s.off+s.n : s.off+s.n], true
}

// NumVNs implements Table.
func (m *Matrix) NumVNs() int { return m.n }

// Cache is the O(n lg n)-space alternative: the engine behind a bounded hash
// cache of routes for active flows; a miss walks the canonical route on
// demand (§2.2) from the engine's bounded distance-field cache. Lookups
// mutate it, so parallel shards each need their own.
type Cache struct {
	eng     *engine
	vnHomes []topology.NodeID
	down    linkSet
	routes  *lru[Route] // keyed by src<<32 | dst

	Hits   uint64
	Misses uint64
}

// NewCache builds a route cache over g with the given capacity (in routes);
// it keeps one distance field per 16 routes, at least 4.
func NewCache(g *topology.Graph, vnHomes []topology.NodeID, capacity int) *Cache {
	return &Cache{
		eng:     newEngine(g, fullView(g), nil, max(capacity/16, 4)),
		vnHomes: vnHomes,
		routes:  newLRU[Route](capacity),
	}
}

// Lookup implements Table. On a miss it walks the route and caches it,
// evicting the least recently used route when full.
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
	r, ok, _ := c.eng.route(nil, c.vnHomes[src], c.vnHomes[dst], 0, c.down) // no seeds, no error
	c.routes.put(key, r)
	return r, ok
}

// NumVNs implements Table.
func (c *Cache) NumVNs() int { return len(c.vnHomes) }

// Len reports the number of cached routes.
func (c *Cache) Len() int { return c.routes.len() }

// Reroute makes the cache route around the given failed links (none heals
// them all), dropping every cached route and distance field.
func (c *Cache) Reroute(down []topology.LinkID) {
	c.down = newLinkSet(down)
	c.routes.reset()
	c.eng.fields.reset()
}
