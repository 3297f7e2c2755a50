// Package routing implements the paper's §2.3 work-in-progress: emulating
// routing protocols *within* the ModelNet core. The base system assumes a
// "perfect" routing protocol that recomputes shortest paths instantly on
// failure; this module instead runs a distance-vector protocol (RIP-style:
// periodic advertisements, triggered updates, split horizon with poisoned
// reverse, route-invalidation timeouts) whose messages propagate with the
// latency and bandwidth cost of the topology's own links — "capturing the
// latency and communication overhead associated with routing protocol code
// while leaving the edge hosts unmodified."
//
// The module exposes a live bind.Table: packet routes follow the protocol's
// current (possibly stale or converging) tables, so applications observe
// realistic convergence transients after failures.
package routing

import (
	"math"

	"modelnet/internal/bind"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Infinity is the distance-vector metric bound ("16 is infinity" in RIP;
// here metrics are latency-based so the bound is a latency).
const Infinity = 1e6

// Config tunes the protocol.
type Config struct {
	AdvertiseEvery vtime.Duration // periodic full advertisement (default 5 s)
	TriggeredDelay vtime.Duration // damping before a triggered update (default 200 ms)
	ExpireAfter    vtime.Duration // route staleness bound (default 3 advertisement periods)
	EntryBytes     int            // advertisement size per route entry (default 20)
	MaxHops        int            // lookup walk bound (default 64)
}

func (c *Config) defaults() {
	if c.AdvertiseEvery <= 0 {
		c.AdvertiseEvery = 5 * vtime.Second
	}
	if c.TriggeredDelay <= 0 {
		c.TriggeredDelay = 200 * vtime.Millisecond
	}
	if c.ExpireAfter <= 0 {
		c.ExpireAfter = 3 * c.AdvertiseEvery
	}
	if c.EntryBytes <= 0 {
		c.EntryBytes = 20
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 64
	}
}

// rtEntry is one route in a node's table.
type rtEntry struct {
	metric   float64         // accumulated link weight (latency + ε)
	nextLink topology.LinkID // -1 for self
	learned  vtime.Time
}

// node is one router's protocol instance.
type node struct {
	id      topology.NodeID
	table   map[topology.NodeID]rtEntry
	trigger bool // triggered update pending
}

// DV is the distance-vector module over a distilled topology.
type DV struct {
	cfg   Config
	sched *vtime.Scheduler
	g     *topology.Graph
	nodes []*node
	down  map[topology.LinkID]bool

	vnHomes []topology.NodeID

	ticker *vtime.Ticker

	// Stats: protocol overhead, as the paper wants captured.
	Messages  uint64
	Bytes     uint64
	Triggered uint64
}

// New builds the module for g, serving routes between the given VN homes.
func New(sched *vtime.Scheduler, g *topology.Graph, vnHomes []topology.NodeID, cfg Config) *DV {
	cfg.defaults()
	d := &DV{
		cfg:     cfg,
		sched:   sched,
		g:       g,
		down:    make(map[topology.LinkID]bool),
		vnHomes: vnHomes,
	}
	d.nodes = make([]*node, g.NumNodes())
	for i := range d.nodes {
		n := &node{id: topology.NodeID(i), table: make(map[topology.NodeID]rtEntry)}
		n.table[n.id] = rtEntry{metric: 0, nextLink: -1}
		d.nodes[i] = n
	}
	d.ticker = vtime.NewTicker(sched, cfg.AdvertiseEvery, d.advertiseAll)
	return d
}

// Start begins periodic advertisements (the first fires immediately so the
// network converges from cold start without waiting a full period).
func (d *DV) Start() {
	d.advertiseAll()
	d.ticker.Start()
}

func linkWeight(l topology.Link) float64 { return l.Attr.LatencySec + 1e-6 }

// SetLinkDown fails or heals a link. The protocol notices immediately at
// the link's endpoint (a carrier-loss signal) and floods triggered
// updates; the rest of the network learns at protocol speed.
func (d *DV) SetLinkDown(lid topology.LinkID, down bool) {
	if down {
		d.down[lid] = true
	} else {
		delete(d.down, lid)
	}
	src := d.g.Links[lid].Src
	n := d.nodes[src]
	if down {
		// Invalidate routes using the link; poison them until
		// re-learned.
		for dst, e := range n.table {
			if e.nextLink == lid {
				e.metric = Infinity
				n.table[dst] = e
			}
		}
	}
	d.scheduleTriggered(n)
}

// advertiseAll sends every node's vector to each neighbor.
func (d *DV) advertiseAll() {
	now := d.sched.Now()
	for _, n := range d.nodes {
		d.expireStale(n, now)
		d.advertise(n)
	}
}

// expireStale poisons entries not refreshed within the staleness bound
// (their advertiser has gone quiet).
func (d *DV) expireStale(n *node, now vtime.Time) {
	for dst, e := range n.table {
		if dst == n.id || e.metric >= Infinity {
			continue
		}
		if now.Sub(e.learned) > d.cfg.ExpireAfter {
			e.metric = Infinity
			n.table[dst] = e
		}
	}
}

// advertise sends n's vector over each live outgoing link, applying split
// horizon with poisoned reverse, with per-link propagation delay.
func (d *DV) advertise(n *node) {
	for _, lid := range d.g.Out(n.id) {
		if d.down[lid] {
			continue
		}
		l := d.g.Links[lid]
		// Find the reverse link (neighbor -> n) that the neighbor would
		// use to reach us; poisoned reverse applies to routes via that.
		vector := make(map[topology.NodeID]float64, len(n.table))
		for dst, e := range n.table {
			m := e.metric
			if e.nextLink >= 0 && d.g.Links[e.nextLink].Dst == l.Dst {
				m = Infinity // poisoned reverse: learned via this neighbor
			}
			vector[dst] = m
		}
		size := len(vector) * d.cfg.EntryBytes
		d.Messages++
		d.Bytes += uint64(size)
		// Propagation + serialization over the real link attributes.
		delay := vtime.DurationOf(l.Attr.LatencySec + float64(size*8)/l.Attr.BandwidthBps)
		to := d.nodes[l.Dst]
		// The receiver reaches us through the reverse link, so that link's
		// weight — not l's, which carries the advertisement — prices its
		// route; the two differ when latencies are asymmetric.
		rev, hasRev := d.g.FindLink(l.Dst, l.Src)
		w := linkWeight(rev)
		d.sched.After(delay, func() {
			if !hasRev || d.down[rev.ID] {
				return
			}
			d.receive(to, rev.ID, w, vector)
		})
	}
}

// receive merges a neighbor's vector arriving over link viaLink (receiver's
// link toward the advertiser) with link weight w.
func (d *DV) receive(n *node, viaLink topology.LinkID, w float64, vector map[topology.NodeID]float64) {
	now := d.sched.Now()
	changed := false
	for dst, m := range vector {
		if dst == n.id {
			continue
		}
		cand := m + w
		if cand > Infinity {
			cand = Infinity
		}
		cur, ok := n.table[dst]
		switch {
		case !ok || cand < cur.metric-1e-12:
			n.table[dst] = rtEntry{metric: cand, nextLink: viaLink, learned: now}
			if !ok || cur.metric < Infinity || cand < Infinity {
				changed = true
			}
		case cur.nextLink == viaLink:
			// Update from the current next hop is authoritative, better
			// or worse.
			if math.Abs(cand-cur.metric) > 1e-12 {
				changed = true
			}
			n.table[dst] = rtEntry{metric: cand, nextLink: viaLink, learned: now}
		}
	}
	if changed {
		d.scheduleTriggered(n)
	}
}

// scheduleTriggered arranges a damped triggered update from n.
func (d *DV) scheduleTriggered(n *node) {
	if n.trigger {
		return
	}
	n.trigger = true
	d.Triggered++
	d.sched.After(d.cfg.TriggeredDelay, func() {
		n.trigger = false
		d.advertise(n)
	})
}

// Table adapts the live protocol state to bind.Table: a lookup walks
// next-hop links from the source VN's home toward the destination's. The
// walk reflects whatever the protocol currently believes — including
// transient loops and black holes during convergence, which is the point.
type Table struct {
	d *DV
}

// Table returns the live routing table view.
func (d *DV) Table() *Table { return &Table{d: d} }

// Lookup implements bind.Table.
func (t *Table) Lookup(src, dst pipes.VN) (bind.Route, bool) {
	d := t.d
	if int(src) >= len(d.vnHomes) || int(dst) >= len(d.vnHomes) || src < 0 || dst < 0 {
		return nil, false
	}
	if src == dst {
		return bind.Route{}, true
	}
	from := d.vnHomes[src]
	to := d.vnHomes[dst]
	var route bind.Route
	cur := from
	for hop := 0; cur != to; hop++ {
		if hop >= d.cfg.MaxHops {
			return nil, false // loop or unconverged path
		}
		e, ok := d.nodes[cur].table[to]
		if !ok || e.metric >= Infinity || e.nextLink < 0 {
			return nil, false // no route (black hole)
		}
		route = append(route, pipes.ID(e.nextLink))
		cur = d.g.Links[e.nextLink].Dst
	}
	return route, true
}

// NumVNs implements bind.Table.
func (t *Table) NumVNs() int { return len(t.d.vnHomes) }
