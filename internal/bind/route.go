package bind

// The whole-graph routing tables: the precomputed matrix and the bounded
// route cache, §2.2's two storage designs. Both are fronts for the route
// engine (engine.go) over the unpartitioned graph, so both hold exactly the
// canonical routes.

import (
	"fmt"

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
// Building it is n distance fields plus one pipe ID per hop of every route
// (DESIGN.md §9 has the cost model), so the O(n²) route headers bound it
// before the build time does: ~10,000 VNs (§2.2). It is read-only once built,
// so parallel shards may share one.
type Matrix struct {
	routes [][]Route // [src][dst]; a destination's routes share one backing array
}

// BuildMatrix computes the routing matrix for the given VN home nodes in g.
// vnHomes[v] is the topology node hosting VN v.
func BuildMatrix(g *topology.Graph, vnHomes []topology.NodeID) (*Matrix, error) {
	return BuildMatrixDown(g, vnHomes, nil)
}

// BuildMatrixDown is BuildMatrix with the given links failed.
func BuildMatrixDown(g *topology.Graph, vnHomes []topology.NodeID, down []topology.LinkID) (*Matrix, error) {
	return newEngine(g, fullView(g), nil, 1).matrix(vnHomes, newLinkSet(down))
}

// matrix fills a Matrix from a whole-graph engine: one distance field per
// destination, computed into the same scratch field each time, and one walk
// per pair. A whole-graph walk never stops early, so a route is as long as
// its source's hop count in the field and a destination's routes are carved
// out of one exact-size array.
func (e *engine) matrix(vnHomes []topology.NodeID, down linkSet) (*Matrix, error) {
	n := len(vnHomes)
	m := &Matrix{routes: make([][]Route, n)}
	flat := make([]Route, n*n)
	for i := range m.routes {
		m.routes[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	var f []cell
	for j, to := range vnHomes {
		var err error
		if f, err = e.compute(f, 0, to, down); err != nil {
			return nil, err
		}
		hops := 0
		for i, from := range vnHomes {
			d := e.at(f, from)
			if !d.Reachable() {
				return nil, fmt.Errorf("bind: VN %d cannot reach VN %d", i, j)
			}
			hops += int(d.Hops)
		}
		arena := make(Route, hops)
		for i, from := range vnHomes {
			if i == j {
				continue
			}
			seg, ok := e.walk(from, to, f, down)
			if !ok {
				return nil, fmt.Errorf("bind: VN %d cannot reach VN %d", i, j)
			}
			m.routes[i][j] = arena[:len(seg):len(seg)]
			arena = arena[copy(arena, seg):]
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
	return r, r != nil
}

// NumVNs implements Table.
func (m *Matrix) NumVNs() int { return len(m.routes) }

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
	r, ok := c.eng.lookup(c.vnHomes[src], c.vnHomes[dst], 0, c.down)
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
