// Package distill implements ModelNet's Distillation phase (§4.1): it
// transforms the target topology into a pipe topology, optionally trading
// accuracy for reduced emulation cost by collapsing interior paths.
//
// The continuum runs from hop-by-hop (isomorphic to the target network,
// every link emulated, all congestion captured) to end-to-end (a full mesh
// of collapsed pipes among VNs, lowest cost, no interior contention). The
// walk-in knob preserves the first walk-in links from the edges, replacing
// the interior with a full mesh of collapsed pipes; walk-out additionally
// preserves the topological center to model under-provisioned cores.
package distill

import (
	"fmt"
	"math"

	"modelnet/internal/topology"
)

// Mode selects the distillation strategy.
type Mode int

const (
	// HopByHop emulates every link in the target network.
	HopByHop Mode = iota
	// EndToEnd collapses every VN-pair path into a single pipe.
	EndToEnd
	// WalkIn preserves Spec.WalkIn frontier sets of links from the edges
	// and meshes the interior. WalkIn=1 is a "last-mile" emulation.
	WalkIn
	// WalkOut is WalkIn plus preservation of the topological center
	// (Spec.WalkOut frontier sets deep), for under-provisioned cores.
	WalkOut
)

func (m Mode) String() string {
	switch m {
	case HopByHop:
		return "hop-by-hop"
	case EndToEnd:
		return "end-to-end"
	case WalkIn:
		return "walk-in"
	case WalkOut:
		return "walk-out"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Spec configures a distillation.
type Spec struct {
	Mode    Mode
	WalkIn  int // frontier sets preserved from the edges (WalkIn/WalkOut modes)
	WalkOut int // frontier sets preserved around the center (WalkOut mode)
}

// Result is a distilled topology. Graph's link IDs are the pipe IDs the
// emulation will use.
type Result struct {
	Graph *topology.Graph
	Spec  Spec
	// PreservedLinks counts target links carried through unmodified;
	// MeshLinks counts synthesized collapsed pipes (directed).
	PreservedLinks int
	MeshLinks      int
}

// Distill applies spec to the target topology g. The input graph is not
// modified.
func Distill(g *topology.Graph, spec Spec) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("distill: invalid target topology: %w", err)
	}
	switch spec.Mode {
	case HopByHop:
		return &Result{Graph: g.Clone(), Spec: spec, PreservedLinks: g.NumLinks()}, nil
	case EndToEnd:
		return endToEnd(g, spec)
	case WalkIn:
		if spec.WalkIn < 1 {
			return nil, fmt.Errorf("distill: walk-in requires WalkIn ≥ 1")
		}
		return walk(g, spec, false)
	case WalkOut:
		if spec.WalkIn < 1 || spec.WalkOut < 0 {
			return nil, fmt.Errorf("distill: walk-out requires WalkIn ≥ 1 and WalkOut ≥ 0")
		}
		return walk(g, spec, true)
	default:
		return nil, fmt.Errorf("distill: unknown mode %v", spec.Mode)
	}
}

// CollapsePath folds a sequence of link attributes into a single pipe's
// attributes: bandwidth is the minimum along the path, latency the sum,
// reliability the product, queue the bottleneck's queue, cost the sum.
func CollapsePath(attrs []topology.LinkAttrs) topology.LinkAttrs {
	out := topology.LinkAttrs{BandwidthBps: math.Inf(1), QueuePkts: math.MaxInt32}
	rel := 1.0
	for _, a := range attrs {
		if a.BandwidthBps < out.BandwidthBps {
			out.BandwidthBps = a.BandwidthBps
			out.QueuePkts = a.QueuePkts
		}
		out.LatencySec += a.LatencySec
		rel *= a.Reliability()
		out.Cost += a.Cost
	}
	out.LossRate = 1 - rel
	if len(attrs) == 0 {
		out = topology.LinkAttrs{}
	}
	return out
}

// Frontiers computes the breadth-first frontier sets of §4.1: frontier 0 is
// every client (VN) node; frontier i+1 holds nodes one hop from frontier i
// not in any earlier frontier. The returned slice indexes frontiers from 0
// (so the paper's "first frontier set" is Frontiers(g)[0]).
func Frontiers(g *topology.Graph) [][]topology.NodeID {
	level := make([]int, g.NumNodes())
	for i := range level {
		level[i] = -1
	}
	var frontiers [][]topology.NodeID
	cur := g.Clients()
	for _, n := range cur {
		level[n] = 0
	}
	for len(cur) > 0 {
		frontiers = append(frontiers, cur)
		var next []topology.NodeID
		for _, n := range cur {
			for _, nb := range g.Neighbors(n) {
				if level[nb] < 0 {
					level[nb] = len(frontiers)
					next = append(next, nb)
				}
			}
		}
		cur = next
	}
	return frontiers
}

// endToEnd removes all interior nodes, leaving a full mesh among the VNs.
func endToEnd(g *topology.Graph, spec Spec) (*Result, error) {
	clients := g.Clients()
	ng := topology.New()
	idMap := make(map[topology.NodeID]topology.NodeID, len(clients))
	for _, c := range clients {
		idMap[c] = ng.AddNode(topology.Client, g.Nodes[c].Name)
	}
	res := &Result{Graph: ng, Spec: spec}
	// One Dijkstra per client over the full graph.
	for _, src := range clients {
		paths := dijkstraPaths(g, src, nil)
		for _, dst := range clients {
			if src == dst {
				continue
			}
			attrs, ok := pathAttrs(g, paths, src, dst)
			if !ok {
				return nil, fmt.Errorf("distill: VN node %d cannot reach %d", src, dst)
			}
			ng.AddLink(idMap[src], idMap[dst], CollapsePath(attrs))
			res.MeshLinks++
		}
	}
	return res, nil
}

// walk implements walk-in (and walk-out when withCenter is set).
func walk(g *topology.Graph, spec Spec, withCenter bool) (*Result, error) {
	frontiers := Frontiers(g)
	// Preserved node set: frontiers 0..WalkIn-1 (paper's "first walk-in
	// frontier sets", 1-indexed there).
	preserved := make([]bool, g.NumNodes())
	for i := 0; i < spec.WalkIn && i < len(frontiers); i++ {
		for _, n := range frontiers[i] {
			preserved[n] = true
		}
	}
	// Center region for walk-out: frontiers c-WalkOut..c where c is the
	// last frontier (size ≤ 1 terminates the BFS naturally; we take the
	// final frontier as the topological center).
	center := make([]bool, g.NumNodes())
	if withCenter {
		c := len(frontiers) - 1
		lo := c - spec.WalkOut
		if lo < spec.WalkIn {
			lo = spec.WalkIn
		}
		for i := lo; i <= c; i++ {
			for _, n := range frontiers[i] {
				center[n] = true
			}
		}
	}

	interior := func(n topology.NodeID) bool { return !preserved[n] }
	// Mesh participants: interior nodes outside the center region.
	var mesh []topology.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		n := topology.NodeID(i)
		if interior(n) && !center[n] {
			mesh = append(mesh, n)
		}
	}

	ng := topology.New()
	idMap := make(map[topology.NodeID]topology.NodeID)
	mapNode := func(n topology.NodeID) topology.NodeID {
		if m, ok := idMap[n]; ok {
			return m
		}
		m := ng.AddNode(g.Nodes[n].Kind, g.Nodes[n].Name)
		idMap[n] = m
		return m
	}
	// Deterministic node order: original IDs ascending.
	for i := 0; i < g.NumNodes(); i++ {
		n := topology.NodeID(i)
		if preserved[n] || center[n] || interior(n) {
			mapNode(n)
		}
	}

	res := &Result{Graph: ng, Spec: spec}
	// Preserve links that touch a preserved node, and links inside the
	// center region. Interior-interior links (outside the center) vanish
	// into the mesh.
	for _, l := range g.Links {
		keep := preserved[l.Src] || preserved[l.Dst] ||
			(center[l.Src] && center[l.Dst])
		if keep {
			ng.AddLink(mapNode(l.Src), mapNode(l.Dst), l.Attr)
			res.PreservedLinks++
		}
	}
	// Full mesh among mesh participants ∪ center boundary: collapse the
	// interior path between each pair. Paths are restricted to interior
	// nodes so the mesh reflects only replaced links.
	allowed := func(n topology.NodeID) bool { return interior(n) }
	meshTargets := append([]topology.NodeID(nil), mesh...)
	if withCenter {
		for i := 0; i < g.NumNodes(); i++ {
			if center[topology.NodeID(i)] {
				meshTargets = append(meshTargets, topology.NodeID(i))
			}
		}
	}
	for _, src := range mesh {
		paths := dijkstraPaths(g, src, allowed)
		for _, dst := range meshTargets {
			if src >= dst { // one direction here; add both below
				continue
			}
			attrs, ok := pathAttrs(g, paths, src, dst)
			if !ok {
				continue // disconnected interior pair: no collapsed pipe
			}
			a := CollapsePath(attrs)
			ng.AddDuplex(mapNode(src), mapNode(dst), a)
			res.MeshLinks += 2
		}
	}
	return res, nil
}

// dijkstraPaths computes a shortest-path tree from src; when allowed is
// non-nil, intermediate nodes must satisfy it (src and the final
// destination are always permitted).
func dijkstraPaths(g *topology.Graph, src topology.NodeID, allowed func(topology.NodeID) bool) []topology.LinkID {
	n := g.NumNodes()
	dist := make([]float64, n)
	prev := make([]topology.LinkID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	// (dist, seq) is a total order, so the tree among equal-cost paths does
	// not depend on the heap's layout.
	q := topology.MinHeap[pqDItem]{Less: func(a, b pqDItem) bool {
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		return a.seq < b.seq
	}}
	seq := 0
	q.Push(pqDItem{src, 0, seq})
	done := make([]bool, n)
	for q.Len() > 0 {
		it := q.Pop()
		if done[it.node] {
			continue
		}
		done[it.node] = true
		// Do not expand through disallowed intermediate nodes.
		if allowed != nil && it.node != src && !allowed(it.node) {
			continue
		}
		for _, lid := range g.Out(it.node) {
			l := g.Links[lid]
			w := l.Attr.LatencySec + 1e-6
			if nd := it.dist + w; nd < dist[l.Dst] {
				dist[l.Dst] = nd
				prev[l.Dst] = lid
				seq++
				q.Push(pqDItem{l.Dst, nd, seq})
			}
		}
	}
	return prev
}

// pathAttrs extracts the attribute sequence of the tree path src→dst.
func pathAttrs(g *topology.Graph, prev []topology.LinkID, src, dst topology.NodeID) ([]topology.LinkAttrs, bool) {
	if src == dst {
		return nil, true
	}
	var rev []topology.LinkAttrs
	cur := dst
	for cur != src {
		lid := prev[cur]
		if lid < 0 {
			return nil, false
		}
		rev = append(rev, g.Links[lid].Attr)
		cur = g.Links[lid].Src
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

type pqDItem struct {
	node topology.NodeID
	dist float64
	seq  int
}
