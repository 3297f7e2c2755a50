// Package assign implements ModelNet's Assignment phase (§2.1): mapping
// pieces of the distilled topology onto core nodes, partitioning the pipe
// graph to distribute emulation load. The ideal assignment depends on
// routing, link properties, and offered traffic — an NP-complete problem —
// so the paper (and this package) uses a simple greedy k-clusters heuristic:
// pick k random seed nodes and greedily grow connected components
// round-robin, claiming each frontier link for the growing cluster.
//
// The heuristic here is lookahead-aware: each cluster claims its
// lowest-latency frontier link first, so low-latency links end up interior
// to a cluster and the eventual cut falls across high-latency links. The
// parallel runtime (internal/parcore) synchronizes cores conservatively
// with a lookahead equal to the minimum cut-pipe latency, so a
// high-latency cut directly buys larger synchronization windows.
package assign

import (
	"fmt"
	"math/rand"

	"modelnet/internal/bind"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Assignment maps each pipe (distilled link) to an owning core.
type Assignment struct {
	Owner []int // link ID -> core index
	Cores int
	// NodeOwner is the node-level partition behind Owner (clients glued to
	// their router's cluster): NodeOwner[n] is the core owning every link
	// out of node n. Sharded distribution slices the world along it. Nil
	// for assignments built without node clustering (Even).
	NodeOwner []int
}

// POD converts the assignment into a pipe ownership directory.
func (a *Assignment) POD() *bind.POD { return bind.NewPOD(a.Owner, a.Cores) }

// KClusters partitions the links of g across k cores with the paper's
// greedy heuristic, seeded deterministically: k random seed nodes grow
// connected node clusters round-robin, and every directed link is owned by
// its source node's cluster.
//
// Two refinements serve the parallel runtime:
//
//   - Growth is lookahead-aware: each cluster annexes the node across its
//     lowest-latency frontier link first, so low-latency links end up
//     interior and the cut falls across high-latency links. With
//     source-node ownership, a packet reaches another core only by fully
//     traversing a cut link, so the synchronization lookahead equals the
//     minimum cut-link latency (see CutStats).
//   - Client nodes are glued to their first router's cluster, keeping both
//     directions of every access link — and therefore VN injection and
//     delivery — on the VN's home core.
func KClusters(g *topology.Graph, k int, seed int64) (*Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("assign: need at least one core, got %d", k)
	}
	n := g.NumNodes()
	a := &Assignment{Owner: make([]int, g.NumLinks()), Cores: k}
	if k == 1 || n == 0 {
		return a, nil
	}
	rng := rand.New(rand.NewSource(seed))

	// Seed each cluster at a distinct random node.
	nodeOwner := make([]int, n)
	for i := range nodeOwner {
		nodeOwner[i] = -1
	}
	perm := rng.Perm(n)
	seeds := k
	if seeds > n {
		seeds = n
	}
	// Each cluster's frontier is a min-heap of candidate links ordered by
	// (latency, link ID) — a total order, so growth is deterministic.
	// Entries whose far node has been annexed meanwhile are discarded lazily
	// at pop time, so each link is pushed and popped at most once —
	// O(E lg E) total instead of the O(frontier) rescan per annexation that
	// dominated startup at 10⁵ VNs.
	cheaper := func(a, b topology.LinkID) bool {
		if la, lb := g.Links[a].Attr.LatencySec, g.Links[b].Attr.LatencySec; la != lb {
			return la < lb
		}
		return a < b
	}
	frontier := make([]topology.MinHeap[topology.LinkID], k)
	for c := range frontier {
		frontier[c].Less = cheaper
	}
	annex := func(c int, n topology.NodeID) {
		nodeOwner[n] = c
		for _, lid := range g.Out(n) {
			frontier[c].Push(lid)
		}
	}
	for c := 0; c < seeds; c++ {
		annex(c, topology.NodeID(perm[c]))
	}

	// Round-robin growth: each cluster annexes one frontier node per turn,
	// crossing its cheapest frontier link whose far node is still unowned.
	owned := seeds
	for owned < n {
		progress := false
		for c := 0; c < k && owned < n; c++ {
			for frontier[c].Len() > 0 {
				if dst := g.Links[frontier[c].Pop()].Dst; nodeOwner[dst] == -1 {
					annex(c, dst)
					owned++
					progress = true
					break
				}
			}
		}
		if !progress {
			// Disconnected remainder: seed leftover nodes round-robin and
			// resume growth from them.
			for i := range nodeOwner {
				if nodeOwner[i] == -1 {
					annex(owned%k, topology.NodeID(i))
					owned++
					break
				}
			}
		}
	}

	// Glue each client to its router's cluster so access links never sit
	// on the cut (the glue targets only non-client routers, from a
	// snapshot, so client-client topologies stay as grown).
	glued := make([]int, n)
	copy(glued, nodeOwner)
	for _, nd := range g.Nodes {
		if nd.Kind != topology.Client {
			continue
		}
		for _, lid := range g.Out(nd.ID) {
			r := g.Links[lid].Dst
			if g.Nodes[r].Kind != topology.Client {
				glued[nd.ID] = nodeOwner[r]
				break
			}
		}
	}

	for i, l := range g.Links {
		a.Owner[i] = glued[l.Src]
	}
	a.NodeOwner = glued
	return a, nil
}

// Even assigns pipes to cores in contiguous equal-size blocks of link ID
// space. It ignores topology structure; useful as a baseline to show how
// much k-clusters reduces crossings.
func Even(g *topology.Graph, k int) (*Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("assign: need at least one core, got %d", k)
	}
	a := &Assignment{Owner: make([]int, g.NumLinks()), Cores: k}
	if g.NumLinks() == 0 {
		return a, nil
	}
	per := (g.NumLinks() + k - 1) / k
	for i := range a.Owner {
		a.Owner[i] = i / per
	}
	return a, nil
}

// Metrics quantify an assignment's quality.
type Metrics struct {
	// LinksPerCore is the emulation load (pipe count) per core.
	LinksPerCore []int
	// CutLinks counts pipe pairs (u→v, next hop) that change cores along
	// sample routes; computed by CrossingStats.
	Imbalance float64 // max/mean link load
}

// LoadMetrics summarizes per-core pipe counts.
func (a *Assignment) LoadMetrics() Metrics {
	m := Metrics{LinksPerCore: make([]int, a.Cores)}
	for _, c := range a.Owner {
		if c >= 0 && c < a.Cores {
			m.LinksPerCore[c]++
		}
	}
	maxv, sum := 0, 0
	for _, v := range m.LinksPerCore {
		sum += v
		if v > maxv {
			maxv = v
		}
	}
	if sum > 0 {
		m.Imbalance = float64(maxv) * float64(a.Cores) / float64(sum)
	}
	return m
}

// CutStats quantify how an assignment will synchronize under the parallel
// runtime. A pipe is on the cut when a packet exiting it can next enter a
// pipe owned by a different core (structurally: some outgoing link of its
// head node has a different owner). The runtime's conservative lookahead is
// the minimum latency over cut pipes — every cross-core handoff is
// announced at least that far ahead in virtual time — so partitions whose
// cuts cross high-latency links synchronize less often.
type CutStats struct {
	CutPipes       int            // pipes whose exit can cross cores
	Lookahead      vtime.Duration // min cut-pipe latency (0 when no cut)
	MeanCutLatency vtime.Duration // mean cut-pipe latency
}

// CutStats analyzes the assignment's cut over the distilled topology. floor,
// when non-nil, lowers each link's latency to the least it can reach mid-run
// (dynamics.Spec.LatencyFloorFunc) — the rule parcore.ComputeSyncFloor
// derives window bounds from.
func (a *Assignment) CutStats(g *topology.Graph, floor func(topology.LinkID, vtime.Duration) vtime.Duration) CutStats {
	var s CutStats
	var sum vtime.Duration
	for _, l := range g.Links {
		cut := false
		for _, nid := range g.Out(l.Dst) {
			if a.Owner[nid] != a.Owner[l.ID] {
				cut = true
				break
			}
		}
		if !cut {
			continue
		}
		lat := vtime.DurationOf(l.Attr.LatencySec)
		if floor != nil {
			lat = floor(l.ID, lat)
		}
		if s.CutPipes == 0 || lat < s.Lookahead {
			s.Lookahead = lat
		}
		s.CutPipes++
		sum += lat
	}
	if s.CutPipes > 0 {
		s.MeanCutLatency = sum / vtime.Duration(s.CutPipes)
	}
	return s
}

// CrossingStats computes, over all VN-pair routes in the matrix, the total
// and mean number of core crossings a packet incurs (§3.3: each crossing
// negatively impacts scalability).
func CrossingStats(m *bind.Matrix, pod *bind.POD, ingress func(src pipes.VN) int) (total int, mean float64) {
	n := m.NumVNs()
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			r, ok := m.Lookup(pipes.VN(i), pipes.VN(j))
			if !ok {
				continue
			}
			ing := 0
			if ingress != nil {
				ing = ingress(pipes.VN(i))
			} else if len(r) > 0 {
				ing = pod.Owner(r[0])
			}
			total += pod.Crossings(ing, r)
			count++
		}
	}
	if count > 0 {
		mean = float64(total) / float64(count)
	}
	return total, mean
}
