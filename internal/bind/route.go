package bind

// The routing tables: the precomputed matrix and the bounded route cache,
// §2.2's two storage designs. Both are fronts for the route engine
// (engine.go), so both hold exactly the canonical routes. Every run and every
// federated worker routes through a Cache; no run builds a Matrix (the
// benchmark module's probes and the reference tests do).

import (
	"cmp"
	"fmt"
	"maps"
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
// 2³² hops the build refuses.
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
	return newEngine(g, fullView(g), nil, 1).matrix(vnHomes)
}

// arenaRoom refuses to grow a matrix's arena past a span's 32-bit offset.
func arenaRoom(used, need, vns int) error {
	if uint64(used)+uint64(need) > math.MaxUint32 {
		return fmt.Errorf("bind: the routing matrix of %d VNs passes 2^32 stored hops; look its routes up through a route cache (NewCache), which computes each on first use", vns)
	}
	return nil
}

// matrix fills a Matrix from a whole-graph engine. Destinations are grouped by
// key: one distance field per key, computed into the same scratch field each
// time, one walk per (source, key), and per destination a copy of that segment
// plus its access pipe. A destination that is its own key is a group of one.
func (e *engine) matrix(vnHomes []topology.NodeID) (*Matrix, error) {
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
		if f, err = e.compute(f, 0, r, nil); err != nil {
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
			seg, ok := e.walk(from, r, f, nil)
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

// Cache is the O(n lg n)-space alternative and the one route table of every
// run and every worker: the engine over a view — the whole graph (NewCache)
// or a shard's slice of it (NewShardTable) — behind a bounded hash cache of
// routes for active flows, each walked on first use (§2.2). On a shard's view
// a route ends at the first foreign pipe and Extend grows it on the shard the
// packet reaches next, under the reroute epoch it was injected in. Lookups
// mutate the cache, so parallel shards each own one.
type Cache struct {
	*engine
	vnHomes []topology.NodeID
	routes  *lru[Route] // keyed by src<<32 | dst, under the current epoch
	epoch   int32
	down    linkSet   // the current epoch's down set
	downs   []linkSet // the preloaded schedule (Preload), epoch e's at e; nil without one

	Hits   uint64
	Misses uint64 // routes walked (engine.Misses counts fields)
}

// defaultFieldCap bounds the distance fields of every table built without a
// cap, and DefaultRouteCache (16 routes a field) a Cache's routes. Fields
// materialize one per route target used, so the cap must exceed a workload's
// distinct targets, or the LRU thrashes and every lookup recomputes a field
// (on a worker, a coordinator round trip).
const (
	defaultFieldCap   = 4096
	DefaultRouteCache = 16 * defaultFieldCap
)

// NewCache builds a route cache over the whole of g with the given capacity
// (in routes; ≤ 0 picks DefaultRouteCache); it keeps one distance field per
// 16 routes, at least 4. Nothing is computed before the first lookup.
func NewCache(g *topology.Graph, vnHomes []topology.NodeID, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultRouteCache
	}
	return newCache(newEngine(g, fullView(g), nil, max(capacity/16, 4)), vnHomes, capacity)
}

func newCache(eng *engine, vnHomes []topology.NodeID, capacity int) *Cache {
	return &Cache{engine: eng, vnHomes: vnHomes, routes: newLRU[Route](capacity)}
}

// Lookup implements Table, under the current epoch. On a miss it walks the
// route and caches it, evicting the least recently used route when full.
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
	r, ok, err := c.route(nil, c.vnHomes[src], c.vnHomes[dst], c.epoch, c.down)
	if err != nil {
		// A failed seed fetch is a control plane failure, not a routing miss:
		// fail loudly rather than silently drop traffic as unreachable.
		panic(fmt.Sprintf("bind: route lookup VN %d->%d: %v", src, dst, err))
	}
	c.routes.put(key, r)
	return r, ok
}

// Extend grows a tunneled packet's route under its pinned epoch: when the
// route's last pipe is this shard's and does not reach dst's home, it returns
// r plus this shard's next segment, in a new route (r and the cached routes
// are never written). A route over the whole graph is complete already.
func (c *Cache) Extend(r Route, epoch int32, dst pipes.VN) (Route, error) {
	if len(r) == 0 || int(dst) >= len(c.vnHomes) || dst < 0 || c.owner[r[len(r)-1]] != c.shard {
		return r, nil // nothing to grow, or a later shard's segment
	}
	cur, target := c.g.Links[r[len(r)-1]].Dst, c.vnHomes[dst]
	if cur == target {
		return r, nil
	}
	down := c.down
	if epoch != c.epoch {
		if epoch < 0 || int(epoch) >= len(c.downs) {
			return nil, fmt.Errorf("bind: shard %d asked for unknown reroute epoch %d (current %d)", c.shard, epoch, c.epoch)
		}
		down = c.downs[epoch]
	}
	ext, ok, err := c.route(r, cur, target, epoch, down)
	if err == nil && !ok {
		err = fmt.Errorf("bind: shard %d cannot extend route toward VN %d (node %d) at epoch %d", c.shard, dst, target, epoch)
	}
	return ext, err
}

// NumVNs implements Table.
func (c *Cache) NumVNs() int { return len(c.vnHomes) }

// Len reports the number of cached routes.
func (c *Cache) Len() int { return c.routes.len() }

// Cap reports the most routes the cache keeps.
func (c *Cache) Cap() int { return c.routes.capacity }

// Preload installs the whole reroute schedule before the first reroute:
// sets[e] is the down set of epoch e, sets[0] the pristine world's
// (dynamics.EnumerateReroutes's shape). Extend then serves any scheduled
// epoch — a faster peer may tunnel a packet injected under a reroute this
// shard has yet to fire — and Reroute checks each down set against it.
func (c *Cache) Preload(sets [][]topology.LinkID) {
	c.downs = make([]linkSet, max(len(sets), 1))
	for e, set := range sets {
		c.downs[e] = newLinkSet(set)
	}
	c.down = c.downs[c.epoch]
}

// Reroute enters the next epoch, with the given links failed (none heals them
// all), and drops every cached route. Without a schedule it drops every field
// too. With one, earlier epochs' fields stay for Extend, and a down set that
// is not the next epoch's, or a reroute past the end, panics: the live replay
// has forked from the schedule, and routing on would use the wrong graph.
func (c *Cache) Reroute(down []topology.LinkID) {
	c.epoch++
	c.routes.reset()
	set := newLinkSet(down)
	if c.downs == nil {
		c.down = set
		c.fields.reset()
		return
	}
	if int(c.epoch) >= len(c.downs) {
		panic(fmt.Sprintf("bind: shard %d reroute #%d exceeds the preloaded epoch schedule (%d epochs)", c.shard, c.epoch, len(c.downs)))
	}
	c.down = c.downs[c.epoch]
	// Off the schedule: name the first link the two sets disagree on.
	for lid := topology.LinkID(0); !maps.Equal(set, c.down); lid++ {
		if set[lid] != c.down[lid] {
			panic(fmt.Sprintf("bind: shard %d reroute #%d differs from the preloaded epoch's down set at link %d (down %v, scheduled %v)",
				c.shard, c.epoch, lid, set[lid], c.down[lid]))
		}
	}
}
