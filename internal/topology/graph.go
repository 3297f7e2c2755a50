// Package topology implements the Create phase of ModelNet: target network
// graphs whose nodes are clients, stubs, or transits (terminology borrowed
// from GT-ITM) and whose edges are links annotated with bandwidth, latency,
// loss rate, and queue capacity. It includes a GML reader/writer and
// synthetic generators (ring, star, line, mesh, random, transit-stub).
package topology

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// NodeKind classifies a topology node.
type NodeKind int

const (
	// Client nodes host virtual edge nodes (VNs): application endpoints.
	Client NodeKind = iota
	// Stub nodes are stub-domain routers near the edge.
	Stub
	// Transit nodes are backbone routers.
	Transit
)

func (k NodeKind) String() string {
	switch k {
	case Client:
		return "client"
	case Stub:
		return "stub"
	case Transit:
		return "transit"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// NodeID names a node within a Graph. IDs are dense, starting at 0.
type NodeID int

// LinkID names a directed link within a Graph. IDs are dense, starting at 0.
type LinkID int

// Node is one vertex of the target topology.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string // optional label carried through GML
}

// LinkClass tags the structural role of a link so that annotation policies
// ("all transit-transit links get 155 Mb/s") can be applied en masse.
type LinkClass int

const (
	ClientStub     LinkClass = iota // client <-> stub access ("last mile")
	StubStub                        // within or between stub domains
	StubTransit                     // stub domain to backbone
	TransitTransit                  // backbone
)

func (c LinkClass) String() string {
	switch c {
	case ClientStub:
		return "client-stub"
	case StubStub:
		return "stub-stub"
	case StubTransit:
		return "stub-transit"
	case TransitTransit:
		return "transit-transit"
	}
	return fmt.Sprintf("LinkClass(%d)", int(c))
}

// LinkAttrs are the emulation parameters of one directed link. These become
// pipe parameters after distillation.
type LinkAttrs struct {
	BandwidthBps float64 // bits per second
	LatencySec   float64 // one-way propagation delay, seconds
	LossRate     float64 // [0,1) random drop probability
	QueuePkts    int     // queue capacity in packets (0 = default)
	Cost         float64 // abstract routing/overlay cost (ACDC §5.3)
}

// Reliability returns 1-LossRate, the per-link delivery probability.
func (a LinkAttrs) Reliability() float64 { return 1 - a.LossRate }

// Link is one directed edge of the target topology. Bidirectional physical
// links are represented as two directed links (the paper's pipes are
// unidirectional).
type Link struct {
	ID   LinkID
	Src  NodeID
	Dst  NodeID
	Attr LinkAttrs
}

// Class derives the structural class of the link from its endpoints.
func (g *Graph) Class(l Link) LinkClass {
	a, b := g.Nodes[l.Src].Kind, g.Nodes[l.Dst].Kind
	switch {
	case a == Client || b == Client:
		return ClientStub
	case a == Transit && b == Transit:
		return TransitTransit
	case a == Stub && b == Stub:
		return StubStub
	default:
		return StubTransit
	}
}

// Graph is a directed multigraph over dense node and link IDs. Nodes and
// Links are the graph; the out-link adjacency is derived from Links, never
// stored per node (see Out).
type Graph struct {
	Nodes []Node
	Links []Link
	adj   atomic.Pointer[adjacency]
}

// adjacency is the out-link arena of a graph's first len(off)-1 nodes and
// first links links: node n's out-links are ids[off[n]:off[n+1]], in
// ascending link ID. An arena is never written after it is published, so a
// Clone shares it.
type adjacency struct {
	off   []int32
	ids   []LinkID
	links int
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// sized returns an empty graph with room for the given node and link counts,
// for generators that know them up front.
func sized(nodes, links int) *Graph {
	return &Graph{Nodes: make([]Node, 0, max(nodes, 0)), Links: make([]Link, 0, max(links, 0))}
}

// AddNode appends a node of the given kind and returns its ID.
func (g *Graph) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name})
	return id
}

// AddLink appends a directed link and returns its ID.
func (g *Graph) AddLink(src, dst NodeID, attr LinkAttrs) LinkID {
	if !g.valid(src) || !g.valid(dst) {
		panic(fmt.Sprintf("topology: AddLink(%d,%d) with %d nodes", src, dst, len(g.Nodes)))
	}
	id := LinkID(len(g.Links))
	g.Links = append(g.Links, Link{ID: id, Src: src, Dst: dst, Attr: attr})
	return id
}

// AddDuplex adds a pair of directed links (one each way) with identical
// attributes, returning their IDs.
func (g *Graph) AddDuplex(a, b NodeID, attr LinkAttrs) (LinkID, LinkID) {
	return g.AddLink(a, b, attr), g.AddLink(b, a, attr)
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.Nodes) }

// Out returns the IDs of links leaving n, in ascending link ID — the order
// route tie-breaking reads. The slice is the graph's adjacency arena, built in
// one pass over Links by the first Out after the last AddNode or AddLink and
// published atomically: goroutines may share a graph nobody is still
// building. Callers must not modify it.
func (g *Graph) Out(n NodeID) []LinkID {
	a := g.adjacency()
	lo, hi := a.off[n], a.off[n+1]
	return a.ids[lo:hi:hi]
}

// adjacency returns the graph's arena, building it if nodes or links were
// added since the last one. Two goroutines racing here build identical
// arenas; either may be the one kept.
func (g *Graph) adjacency() *adjacency {
	if a := g.adj.Load(); a != nil && len(a.off) == len(g.Nodes)+1 && a.links == len(g.Links) {
		return a
	}
	// A counting sort by tail: off[n] first counts the links leaving nodes
	// ≤ n, then each link, taken in descending ID order, steps its tail's
	// offset back by one and takes that slot. Every node's list comes out
	// ascending and off[n] ends at its first slot.
	a := &adjacency{off: make([]int32, len(g.Nodes)+1), links: len(g.Links)}
	for _, l := range g.Links {
		if g.valid(l.Src) {
			a.off[l.Src]++
		}
	}
	for i := 1; i < len(a.off); i++ {
		a.off[i] += a.off[i-1]
	}
	a.ids = make([]LinkID, a.off[len(g.Nodes)])
	for i := len(g.Links) - 1; i >= 0; i-- {
		if l := g.Links[i]; g.valid(l.Src) {
			a.off[l.Src]--
			a.ids[a.off[l.Src]] = l.ID
		}
	}
	g.adj.Store(a)
	return a
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumLinks returns the directed-link count.
func (g *Graph) NumLinks() int { return len(g.Links) }

// Clients returns the IDs of all client nodes, in ID order.
func (g *Graph) Clients() []NodeID {
	var out []NodeID
	for _, n := range g.Nodes {
		if n.Kind == Client {
			out = append(out, n.ID)
		}
	}
	return out
}

// Neighbors returns the distinct nodes reachable over one outgoing link from
// n, in ascending order.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, lid := range g.Out(n) {
		d := g.Links[lid].Dst
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FindLink returns the first link from src to dst, if any.
func (g *Graph) FindLink(src, dst NodeID) (Link, bool) {
	for _, lid := range g.Out(src) {
		if g.Links[lid].Dst == dst {
			return g.Links[lid], true
		}
	}
	return Link{}, false
}

// Validate checks structural invariants: endpoint IDs are in range, no
// self-loops, and every client node has at least one link (clients host VNs
// and must be reachable). It returns the first problem found.
func (g *Graph) Validate() error {
	for _, l := range g.Links {
		if !g.valid(l.Src) || !g.valid(l.Dst) {
			return fmt.Errorf("topology: link %d has endpoint out of range", l.ID)
		}
		if l.Src == l.Dst {
			return fmt.Errorf("topology: link %d is a self-loop on node %d", l.ID, l.Src)
		}
		if l.Attr.BandwidthBps <= 0 {
			return fmt.Errorf("topology: link %d has non-positive bandwidth", l.ID)
		}
		if l.Attr.LatencySec < 0 {
			return fmt.Errorf("topology: link %d has negative latency", l.ID)
		}
		if l.Attr.LossRate < 0 || l.Attr.LossRate >= 1 {
			return fmt.Errorf("topology: link %d loss rate %v outside [0,1)", l.ID, l.Attr.LossRate)
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == Client && len(g.Out(n.ID)) == 0 {
			return fmt.Errorf("topology: client node %d has no links", n.ID)
		}
	}
	return nil
}

// Clone returns a deep copy of the graph: two slice copies, and the
// adjacency arena shared, since no graph writes into one.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Nodes: append([]Node(nil), g.Nodes...),
		Links: append([]Link(nil), g.Links...),
	}
	ng.adj.Store(g.adjacency())
	return ng
}

// ErrLinkOrder is NewSkeleton's refusal of a link list that is not in
// strictly ascending ID order: the arena lists each node's out-links in ID
// order, so an unordered list would be silently reordered.
var ErrLinkOrder = errors.New("topology: skeleton links not in ascending ID order")

// NewSkeleton builds a sparse graph over the full ID spaces of a larger
// world: numNodes anonymous nodes and numLinks link slots, of which only the
// given links are real. Real links keep their global IDs (each must satisfy
// 0 ≤ ID < numLinks) and are listed in strictly ascending ID order, else
// ErrLinkOrder; the remaining slots hold zero-valued placeholders whose ID
// is set but whose endpoints are -1 and must never be dereferenced.
// Adjacency covers real links only, so Out() at any node enumerates exactly
// the view's links. This is the worker-side shape of a sharded world: global
// IDs stay valid as array indexes while only O(shard) links carry data.
func NewSkeleton(numNodes, numLinks int, links []Link) (*Graph, error) {
	g := &Graph{
		Nodes: make([]Node, numNodes),
		Links: make([]Link, numLinks),
	}
	for i := range g.Nodes {
		g.Nodes[i] = Node{ID: NodeID(i), Kind: Stub}
	}
	for i := range g.Links {
		g.Links[i] = Link{ID: LinkID(i), Src: -1, Dst: -1}
	}
	for i, l := range links {
		if l.ID < 0 || int(l.ID) >= numLinks {
			return nil, fmt.Errorf("topology: skeleton link ID %d outside %d slots", l.ID, numLinks)
		}
		if i > 0 && l.ID <= links[i-1].ID {
			return nil, fmt.Errorf("%w: link %d listed after %d", ErrLinkOrder, l.ID, links[i-1].ID)
		}
		if !g.valid(l.Src) || !g.valid(l.Dst) {
			return nil, fmt.Errorf("topology: skeleton link %d has endpoint out of range", l.ID)
		}
		g.Links[l.ID] = l
	}
	g.adjacency()
	return g, nil
}
