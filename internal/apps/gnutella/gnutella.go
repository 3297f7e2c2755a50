// Package gnutella implements an unstructured Gnutella-style peer-to-peer
// network — the paper's largest single experiment ran 10,000 unmodified
// gnutella clients (100 VNs on each of 100 edge nodes) and measured system
// evolution and connectivity. Peers hold a neighbor set and flood pings
// and keyword queries with TTL and duplicate suppression; pongs and query
// hits return directly to the originator.
//
// Real gnutella multiplexes messages over persistent TCP connections; this
// implementation exchanges datagrams among the fixed neighbor set, which
// preserves the flooding dynamics (fan-out, TTL horizon, duplicate load)
// while keeping 10k-node runs cheap. See DESIGN.md.
package gnutella

import (
	"fmt"

	"modelnet/internal/netstack"
	"modelnet/internal/vtime"
)

// Message kinds.
type ping struct {
	ID     uint64
	TTL    int
	Origin netstack.Endpoint
}

type pong struct {
	ID   uint64
	From netstack.Endpoint
}

type query struct {
	ID      uint64
	TTL     int
	Keyword string
	Origin  netstack.Endpoint
}

type queryHit struct {
	ID      uint64
	Keyword string
	From    netstack.Endpoint
}

// Wire sizes.
const (
	pingWire  = 23 // gnutella ping descriptor + header
	pongWire  = 37
	queryWire = 60
	hitWire   = 80
)

// Config tunes a peer.
type Config struct {
	Port       uint16 // default 6346, the gnutella port
	DefaultTTL int    // default 7
}

func (c *Config) defaults() {
	if c.Port == 0 {
		c.Port = 6346
	}
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 7
	}
}

// Peer is one gnutella servent.
type Peer struct {
	id   int
	cfg  Config
	host *netstack.Host
	sock *netstack.UDPSocket

	neighbors []netstack.Endpoint
	seen      map[uint64]bool
	files     map[string]bool
	nextID    uint64

	// Live result collectors keyed by message ID.
	pongs map[uint64]func(pong)
	hits  map[uint64]func(queryHit)

	Forwarded  uint64
	Duplicates uint64
}

// NewPeer starts a servent on host h.
func NewPeer(h *netstack.Host, id int, cfg Config) (*Peer, error) {
	cfg.defaults()
	p := &Peer{
		id: id, cfg: cfg, host: h,
		seen:  make(map[uint64]bool),
		files: make(map[string]bool),
		pongs: make(map[uint64]func(pong)),
		hits:  make(map[uint64]func(queryHit)),
	}
	sock, err := h.OpenUDP(cfg.Port, p.onDatagram)
	if err != nil {
		return nil, err
	}
	p.sock = sock
	return p, nil
}

// Addr returns the peer's endpoint.
func (p *Peer) Addr() netstack.Endpoint { return p.sock.Addr() }

// Connect adds a neighbor (callers typically connect both directions).
func (p *Peer) Connect(nb netstack.Endpoint) {
	for _, e := range p.neighbors {
		if e == nb {
			return
		}
	}
	p.neighbors = append(p.neighbors, nb)
}

// Share registers a file keyword this peer answers queries for.
func (p *Peer) Share(keyword string) { p.files[keyword] = true }

func (p *Peer) msgID() uint64 {
	p.nextID++
	return uint64(p.id)<<32 | p.nextID
}

// Ping floods a ping; each distinct reachable peer pongs once directly to
// us. onPong fires per pong; use the scheduler to bound collection time.
func (p *Peer) Ping(onPong func(from netstack.Endpoint)) {
	id := p.msgID()
	p.seen[id] = true
	p.pongs[id] = func(pg pong) { onPong(pg.From) }
	msg := &ping{ID: id, TTL: p.cfg.DefaultTTL, Origin: p.Addr()}
	for _, nb := range p.neighbors {
		p.sock.SendTo(nb, pingWire, msg)
	}
}

// Query floods a keyword search; onHit fires for every responding sharer.
func (p *Peer) Query(keyword string, onHit func(from netstack.Endpoint)) {
	id := p.msgID()
	p.seen[id] = true
	p.hits[id] = func(h queryHit) { onHit(h.From) }
	msg := &query{ID: id, TTL: p.cfg.DefaultTTL, Keyword: keyword, Origin: p.Addr()}
	for _, nb := range p.neighbors {
		p.sock.SendTo(nb, queryWire, msg)
	}
}

func (p *Peer) onDatagram(from netstack.Endpoint, dg *netstack.Datagram) {
	switch m := dg.Obj.(type) {
	case *ping:
		if p.seen[m.ID] {
			p.Duplicates++
			return
		}
		p.seen[m.ID] = true
		p.sock.SendTo(m.Origin, pongWire, &pong{ID: m.ID, From: p.Addr()})
		if m.TTL > 1 {
			fwd := &ping{ID: m.ID, TTL: m.TTL - 1, Origin: m.Origin}
			for _, nb := range p.neighbors {
				if nb != from {
					p.sock.SendTo(nb, pingWire, fwd)
					p.Forwarded++
				}
			}
		}
	case *pong:
		if cb, ok := p.pongs[m.ID]; ok {
			cb(*m)
		}
	case *query:
		if p.seen[m.ID] {
			p.Duplicates++
			return
		}
		p.seen[m.ID] = true
		if p.files[m.Keyword] {
			p.sock.SendTo(m.Origin, hitWire, &queryHit{ID: m.ID, Keyword: m.Keyword, From: p.Addr()})
		}
		if m.TTL > 1 {
			fwd := &query{ID: m.ID, TTL: m.TTL - 1, Keyword: m.Keyword, Origin: m.Origin}
			for _, nb := range p.neighbors {
				if nb != from {
					p.sock.SendTo(nb, queryWire, fwd)
					p.Forwarded++
				}
			}
		}
	case *queryHit:
		if cb, ok := p.hits[m.ID]; ok {
			cb(*m)
		}
	}
}

// Reachability floods a ping from peer p and reports, after window, how
// many distinct peers answered — the connectivity metric of the 10k-node
// study.
func (p *Peer) Reachability(window vtime.Duration, done func(count int)) {
	seen := map[netstack.Endpoint]bool{}
	p.Ping(func(from netstack.Endpoint) { seen[from] = true })
	p.host.Scheduler().After(window, func() { done(len(seen)) })
}

func (p *Peer) String() string {
	return fmt.Sprintf("gnutella peer %d (%d neighbors)", p.id, len(p.neighbors))
}
