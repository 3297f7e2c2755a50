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
	// RouteCache, when positive, uses the O(n lg n) route cache of that
	// capacity instead of the precomputed O(n²) matrix.
	RouteCache int
	// LazyRoutes is RouteCache at lazyRouteCap, whatever RouteCache says: no
	// route is computed at bind time and few are kept. It is what a
	// coordinator under sharded distribution binds with — there the binding
	// exists for VN numbering and sync plans, routes are rarely consulted,
	// and each distance field is as large as the world.
	LazyRoutes bool
}

// lazyRouteCap bounds a LazyRoutes table to 32 distance fields (NewCache
// keeps one per 16 routes).
const lazyRouteCap = 512

// Bind performs the Binding phase over a distilled topology: every client
// node becomes a VN (in node-ID order), routes are computed among all VN
// pairs, and VNs are multiplexed onto edge nodes bound to cores.
func Bind(g *topology.Graph, opts Options) (*Binding, error) {
	clients := g.Clients()
	if len(clients) == 0 {
		return nil, fmt.Errorf("bind: topology has no client nodes to host VNs")
	}
	b := &Binding{
		VNHome:   clients,
		VNOfNode: make([]pipes.VN, g.NumNodes()),
	}
	for i := range b.VNOfNode {
		b.VNOfNode[i] = -1
	}
	for v, nid := range clients {
		b.VNOfNode[nid] = pipes.VN(v)
	}

	edges := opts.EdgeNodes
	if edges <= 0 {
		edges = len(clients)
	}
	b.EdgeOf = make([]int, len(clients))
	for v := range b.EdgeOf {
		b.EdgeOf[v] = v % edges
	}
	cores := opts.Cores
	if cores <= 0 {
		cores = 1
	}
	b.CoreOf = make([]int, edges)
	for e := range b.CoreOf {
		b.CoreOf[e] = e % cores
	}

	routeCap := opts.RouteCache
	if opts.LazyRoutes {
		routeCap = lazyRouteCap
	}
	if routeCap > 0 {
		b.Table = NewCache(g, clients, routeCap)
		return b, nil
	}
	m, err := BuildMatrix(g, clients)
	if err != nil {
		return nil, err
	}
	b.Table = m
	return b, nil
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

// NumPipes reports the number of pipes tracked.
func (d *POD) NumPipes() int { return len(d.owner) }

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
