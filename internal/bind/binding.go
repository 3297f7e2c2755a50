package bind

import (
	"fmt"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

// Binding is the output of the Binding phase: which topology node hosts each
// VN, which physical edge node each VN runs on, which core each edge node
// forwards through, and the routing table.
type Binding struct {
	// VNHome[v] is the topology (client) node where VN v attaches.
	VNHome []topology.NodeID
	// VNOfNode inverts VNHome for client nodes; -1 for non-VN nodes.
	VNOfNode []pipes.VN
	// EdgeOf[v] is the physical edge node hosting VN v.
	EdgeOf []int
	// CoreOf[e] is the core node that edge node e forwards through.
	CoreOf []int
	// Table resolves VN-pair routes.
	Table Table
}

// Options configure the binding phase.
type Options struct {
	// EdgeNodes is the number of physical edge machines; VNs are assigned
	// round-robin (multiplexing several VNs per machine, §4.2). Zero means
	// one edge node per VN.
	EdgeNodes int
	// Cores is the number of core routers; edge nodes bind to cores
	// round-robin. Zero means one core.
	Cores int
	// RouteCache bounds the run's route cache (§2.2's O(n lg n) store):
	// routes are computed on first use and at most this many are kept. Zero
	// picks DefaultRouteCache.
	RouteCache int
	// LazyRoutes is RouteCache at lazyRouteCap, whatever RouteCache says: few
	// routes and fields are kept, for a binding that exists for VN numbering
	// and sync inputs, where routes are rarely consulted and each distance
	// field is as large as the world.
	LazyRoutes bool
}

// lazyRouteCap bounds a LazyRoutes table to 32 distance fields (NewCache
// keeps one per 16 routes).
const lazyRouteCap = 512

// Bind performs the Binding phase over a distilled topology: every client
// node becomes a VN (in node-ID order), VNs are multiplexed onto edge nodes
// bound to cores, and the table is a route Cache, which computes no route
// before its first lookup. At the default capacity a topology with a VN pair
// that has no path between them is refused.
func Bind(g *topology.Graph, opts Options) (*Binding, error) {
	clients := g.Clients()
	if len(clients) == 0 {
		return nil, fmt.Errorf("bind: topology has no client nodes to host VNs")
	}
	b := NewBinding(clients, g.NumNodes(), opts.EdgeNodes, opts.Cores)
	routeCap := opts.RouteCache
	if opts.LazyRoutes {
		routeCap = lazyRouteCap
	}
	c := NewCache(g, clients, routeCap)
	if routeCap <= 0 {
		// Only a run that sizes its own table may bind a world of islands
		// (topology.Pairs), whose lookups between islands return !ok.
		if src, dst, found := c.unreached(clients); found {
			return nil, fmt.Errorf("bind: VN %d cannot reach VN %d", src, dst)
		}
	}
	b.Table = c
	return b, nil
}

// unreached finds a pair of homes with no path between them, if any: every
// pair has one iff every home reaches homes[0] and is reached from it, so a
// search along out-links and one along in-links decide all n² pairs in
// O(nodes + links). Transit is through any node, clients included, as walk
// routes; a down link still carries routes, so no down set plays a part.
func (e *engine) unreached(homes []topology.NodeID) (src, dst int, found bool) {
	h := homes[0]
	from := make([]bool, len(e.cover)) // reached from h, by node ID
	to := make([]bool, len(e.inOff)-1) // reaches h, by cover index
	from[h] = true
	for q := []topology.NodeID{h}; len(q) > 0; q = q[1:] {
		for _, lid := range e.g.Out(q[0]) {
			if d := e.g.Links[lid].Dst; !from[d] {
				from[d] = true
				q = append(q, d)
			}
		}
	}
	if c := e.cover[h]; c >= 0 {
		to[c] = true
		for q := []int32{c}; len(q) > 0; q = q[1:] {
			for _, l := range e.in[e.inOff[q[0]]:e.inOff[q[0]+1]] {
				if !to[l.src] {
					to[l.src] = true
					q = append(q, l.src)
				}
			}
		}
	}
	for v, n := range homes {
		if c := e.cover[n]; n != h && (c < 0 || !to[c]) {
			return v, 0, true
		}
		if !from[n] {
			return 0, v, true
		}
	}
	return 0, 0, false
}

// NewBinding numbers the VNs homed at vnHome (VN v on node vnHome[v]) and
// multiplexes them round-robin onto edge nodes (edgeNodes ≤ 0: one per VN)
// bound round-robin to cores (≤ 0: one). The Table is the caller's to set.
func NewBinding(vnHome []topology.NodeID, numNodes, edgeNodes, cores int) *Binding {
	if edgeNodes <= 0 {
		edgeNodes = len(vnHome)
	}
	b := &Binding{VNHome: vnHome, VNOfNode: make([]pipes.VN, numNodes), EdgeOf: make([]int, len(vnHome)), CoreOf: make([]int, edgeNodes)}
	for i := range b.VNOfNode {
		b.VNOfNode[i] = -1
	}
	for v, n := range vnHome {
		b.VNOfNode[n], b.EdgeOf[v] = pipes.VN(v), v%edgeNodes
	}
	for e := range b.CoreOf {
		b.CoreOf[e] = e % max(cores, 1)
	}
	return b
}

// NumVNs reports the number of VNs bound.
func (b *Binding) NumVNs() int { return len(b.VNHome) }

// POD is the pipe ownership directory (§2.2): which core owns each pipe.
// When a packet's next pipe is owned by a different core, the descriptor is
// tunneled to the owning node.
type POD struct {
	owner []int // pipe ID -> core index
	cores int
}

// NewPOD builds a POD from an assignment of pipe (link) IDs to cores.
// owner[i] is the core owning pipe i.
func NewPOD(owner []int, cores int) *POD {
	return &POD{owner: owner, cores: cores}
}

// Owner returns the core owning pipe p.
func (d *POD) Owner(p pipes.ID) int {
	if int(p) >= len(d.owner) || p < 0 {
		return 0
	}
	return d.owner[p]
}

// Cores reports the number of cores in the directory.
func (d *POD) Cores() int { return d.cores }

// Crossings counts how many core-to-core transitions a route incurs,
// including the implicit transition from the ingress core (the core the
// source VN's edge node binds to) to the first pipe's owner.
func (d *POD) Crossings(ingressCore int, r Route) int {
	n := 0
	cur := ingressCore
	for _, p := range r {
		o := d.Owner(p)
		if o != cur {
			n++
			cur = o
		}
	}
	return n
}
