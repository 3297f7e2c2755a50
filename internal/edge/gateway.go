package edge

// The live edge gateway: the one place where real packets from unmodified
// processes enter and leave the virtual-time emulation. A gateway binds one
// real UDP socket per worker; each datagram's real five-tuple is mapped
// onto an ingress VN by a bind.GatewayTable, the payload bytes become a
// virtual datagram from that VN to the mapping's virtual destination, and
// replies delivered to the ingress VN are written back out the real socket
// to the bound external endpoint.
//
// Timing discipline: real arrivals are queued by a reader goroutine and
// admitted into virtual time only at synchronization barriers (Admit),
// stamped past the window's edge — never mid-window, so the conservative
// synchronization protocol (parcore.Drive) stays sound. The stamp is
// max(local clock, the coordinator-supplied floor); the floor is above
// every clock and grant of the round, so an admission can never fire
// before a peer shard's clock (the EOT invariant), and under real-time
// pacing it is no earlier than the coordinator's wall clock. An arrival
// waits out the barrier it was queued before and is stamped at the next
// one, whose floor was taken after it arrived. Under real-time pacing the
// stamp therefore trails the wall-clock arrival by up to two pacing quanta
// plus a barrier round, which is the gateway's ingress timestamp error; see
// DESIGN.md §4.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"modelnet/internal/bind"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// DefaultGatewayMaxDatagram bounds one real ingress datagram: an emulated
// MTU's worth of payload. Oversize datagrams are rejected and counted, not
// truncated.
const DefaultGatewayMaxDatagram = 1472

// DefaultGatewayPort is the virtual UDP port a gateway binds on each
// ingress VN when the mapping does not name one.
const DefaultGatewayPort = 4096

// defaultQueueCap bounds real datagrams buffered between barriers.
const defaultQueueCap = 1024

// GatewayConfig configures a worker's live edge gateway. It is JSON-able:
// in a federated run it travels to every worker inside the setup frame
// (the gateway "lease"), and each worker instantiates only the mappings
// whose ingress VN is homed on its shard.
type GatewayConfig struct {
	// Listen is the real UDP address to bind ("127.0.0.1:0" for loopback
	// demos, ":port" to accept traffic from other machines).
	Listen string `json:"listen"`
	// Maps are the ingress/egress bindings.
	Maps []GatewayMap `json:"maps"`
	// MaxDatagram bounds one ingress datagram's payload bytes; larger
	// datagrams are rejected (counted in Stats.Oversize). 0 means
	// DefaultGatewayMaxDatagram.
	MaxDatagram int `json:"max_datagram,omitempty"`
	// QueueCap bounds datagrams buffered between barriers; beyond it,
	// arrivals are dropped (Stats.QueueDrops). 0 means 1024.
	QueueCap int `json:"queue_cap,omitempty"`
}

// GatewayMap binds one ingress VN: real datagrams attributed to the VN are
// re-sent, inside the emulation, from (VN, Port) to (DstVN, DstPort), and
// virtual datagrams delivered to (VN, Port) leave the real socket toward
// the bound external endpoint.
type GatewayMap struct {
	// VN is the ingress virtual node the external flow impersonates.
	VN int `json:"vn"`
	// Peer optionally pins the external endpoint ("ip:port") statically;
	// empty means the first unknown real source to arrive claims this VN
	// dynamically (and may be evicted LRU under contention).
	Peer string `json:"peer,omitempty"`
	// DstVN/DstPort name the virtual destination ingress traffic is sent
	// to (an in-emulation service such as the live-ring echo responder).
	DstVN   int    `json:"dst_vn"`
	DstPort uint16 `json:"dst_port"`
	// Port is the virtual UDP port the gateway binds on VN; replies must
	// be addressed to it. 0 means DefaultGatewayPort.
	Port uint16 `json:"port,omitempty"`
}

// HomedMaps counts the mappings whose ingress VN the given predicate
// accepts — how a federated worker decides whether to host a gateway at
// all.
func (c *GatewayConfig) HomedMaps(homed func(pipes.VN) bool) int {
	n := 0
	for _, m := range c.Maps {
		if homed(pipes.VN(m.VN)) {
			n++
		}
	}
	return n
}

// GatewayStats counts a gateway's boundary traffic.
type GatewayStats struct {
	IngressPkts  uint64 `json:"ingress_pkts"`  // real datagrams admitted into virtual time
	IngressBytes uint64 `json:"ingress_bytes"` // their payload bytes
	EgressPkts   uint64 `json:"egress_pkts"`   // virtual deliveries written to the real socket
	EgressBytes  uint64 `json:"egress_bytes"`
	Oversize     uint64 `json:"oversize,omitempty"`    // rejected: payload over MaxDatagram
	Unmapped     uint64 `json:"unmapped,omitempty"`    // rejected: no VN grantable / no peer bound
	QueueDrops   uint64 `json:"queue_drops,omitempty"` // rejected: barrier queue full
	Collisions   uint64 `json:"collisions,omitempty"`  // dynamic claims that found the pool full
	Evictions    uint64 `json:"evictions,omitempty"`   // five-tuple bindings recycled LRU
}

// Merge folds another gateway's counters in.
func (s *GatewayStats) Merge(o GatewayStats) {
	s.IngressPkts += o.IngressPkts
	s.IngressBytes += o.IngressBytes
	s.EgressPkts += o.EgressPkts
	s.EgressBytes += o.EgressBytes
	s.Oversize += o.Oversize
	s.Unmapped += o.Unmapped
	s.QueueDrops += o.QueueDrops
	s.Collisions += o.Collisions
	s.Evictions += o.Evictions
}

// gatewayEntry is one instantiated mapping.
type gatewayEntry struct {
	m    GatewayMap
	sock *netstack.UDPSocket
	dst  netstack.Endpoint
	peer *net.UDPAddr // external endpoint (static, or learned at claim)
}

// pendingDatagram is one real arrival awaiting barrier admission.
type pendingDatagram struct {
	vn   pipes.VN
	data []byte
}

// Gateway is a live edge gateway bound to one real UDP socket.
type Gateway struct {
	conn        *net.UDPConn
	sched       *vtime.Scheduler
	maxDatagram int
	queueCap    int

	mu      sync.Mutex
	table   *bind.GatewayTable
	entries map[pipes.VN]*gatewayEntry
	pending []pendingDatagram // arrived since the last barrier
	held    []pendingDatagram // sealed at the last barrier, admitted at the next
	stats   GatewayStats

	closed chan struct{}
	wg     sync.WaitGroup

	// clock stamps binding activity for LRU eviction; overridable in tests.
	clock func() int64
}

// NewGateway binds the real socket and instantiates every mapping whose
// ingress VN is homed (per the predicate; pass nil to accept all). host
// supplies the netstack stack of a homed VN, and sched the virtual-time
// scheduler admissions run on. The gateway's reader goroutine starts
// immediately, but nothing enters virtual time until Admit is called.
func NewGateway(cfg GatewayConfig, homed func(pipes.VN) bool, host func(pipes.VN) *netstack.Host, sched *vtime.Scheduler) (*Gateway, error) {
	if homed == nil {
		homed = func(pipes.VN) bool { return true }
	}
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("edge: gateway listen %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("edge: gateway listen %q: %w", listen, err)
	}
	g := &Gateway{
		conn:        conn,
		sched:       sched,
		maxDatagram: cfg.MaxDatagram,
		queueCap:    cfg.QueueCap,
		entries:     map[pipes.VN]*gatewayEntry{},
		closed:      make(chan struct{}),
		clock:       func() int64 { return time.Now().UnixNano() },
	}
	if g.maxDatagram <= 0 {
		g.maxDatagram = DefaultGatewayMaxDatagram
	}
	if g.queueCap <= 0 {
		g.queueCap = defaultQueueCap
	}
	var pool []pipes.VN
	local := conn.LocalAddr().String()
	for _, m := range cfg.Maps {
		vn := pipes.VN(m.VN)
		if !homed(vn) {
			continue
		}
		if _, dup := g.entries[vn]; dup {
			conn.Close()
			return nil, fmt.Errorf("edge: gateway maps VN %d twice", m.VN)
		}
		e := &gatewayEntry{m: m, dst: netstack.Endpoint{VN: pipes.VN(m.DstVN), Port: m.DstPort}}
		port := m.Port
		if port == 0 {
			port = DefaultGatewayPort
		}
		sock, err := host(vn).OpenUDP(port, g.egressHandler(e))
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("edge: gateway VN %d: %w", m.VN, err)
		}
		e.sock = sock
		g.entries[vn] = e
		if m.Peer == "" {
			pool = append(pool, vn)
		}
	}
	g.table = bind.NewGatewayTable(pool)
	for _, m := range cfg.Maps {
		vn := pipes.VN(m.VN)
		if m.Peer == "" || g.entries[vn] == nil {
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", m.Peer)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("edge: gateway VN %d peer %q: %w", m.VN, m.Peer, err)
		}
		if err := g.table.Bind(bind.FiveTuple{Proto: "udp", Src: ua.String(), Dst: local}, vn); err != nil {
			conn.Close()
			return nil, err
		}
		g.entries[vn].peer = ua
	}
	if len(g.entries) == 0 {
		conn.Close()
		return nil, fmt.Errorf("edge: gateway has no homed mappings")
	}
	g.wg.Add(1)
	go g.read()
	return g, nil
}

// Addr reports the real address the gateway listens on.
func (g *Gateway) Addr() string { return g.conn.LocalAddr().String() }

// egressHandler writes virtual datagrams delivered to an ingress VN out
// the real socket toward the VN's bound external endpoint. It runs on the
// scheduler goroutine, during windows.
func (g *Gateway) egressHandler(e *gatewayEntry) netstack.UDPHandler {
	return func(from netstack.Endpoint, dg *netstack.Datagram) {
		g.mu.Lock()
		peer := e.peer
		if peer == nil {
			g.stats.Unmapped++
			g.mu.Unlock()
			return
		}
		data := dg.Data
		if data == nil {
			// Reference-payload datagrams carry no real bytes; emit a
			// zero-filled body of the declared length so an external
			// observer still sees the modeled size.
			data = make([]byte, dg.Len)
		}
		g.stats.EgressPkts++
		g.stats.EgressBytes += uint64(len(data))
		g.mu.Unlock()
		_, _ = g.conn.WriteToUDP(data, peer)
	}
}

// read is the socket reader goroutine: it validates, maps, and queues real
// arrivals; it never touches virtual time.
func (g *Gateway) read() {
	defer g.wg.Done()
	buf := make([]byte, g.maxDatagram+1)
	local := g.conn.LocalAddr().String()
	for {
		n, raddr, err := g.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-g.closed:
			default:
			}
			return
		}
		g.mu.Lock()
		switch {
		case n > g.maxDatagram:
			g.stats.Oversize++
		case len(g.pending) >= g.queueCap:
			g.stats.QueueDrops++
		default:
			key := bind.FiveTuple{Proto: "udp", Src: raddr.String(), Dst: local}
			vn, ok := g.table.Claim(key, g.clock())
			if !ok || g.entries[vn] == nil {
				g.stats.Unmapped++
				break
			}
			// A dynamic claim (or an eviction's rebind) moves the VN's
			// egress endpoint to the new flow.
			g.entries[vn].peer = raddr
			g.pending = append(g.pending, pendingDatagram{vn: vn, data: append([]byte(nil), buf[:n]...)})
		}
		g.stats.Collisions = g.table.Collisions
		g.stats.Evictions = g.table.Evictions
		g.mu.Unlock()
	}
}

// Admit is the gateway's share of a synchronization barrier, called on the
// scheduler's goroutine. It schedules, as virtual-time ingress events, the
// arrivals that were already queued at the previous call, and seals the
// ones queued since for the next call. Each admitted datagram is re-sent
// from its ingress VN's gateway socket at stamp = max(now, floor); floor is
// the coordinator's bound for this barrier — above every shard's clock,
// which keeps admissions from firing before any peer shard's present, and
// under pacing no earlier than its wall clock. The one-barrier hold is what
// makes that wall clock mean something: the floor a datagram is stamped
// with was computed after the barrier that sealed it, hence after it
// arrived, however long the floor took to get here — so a stamp is never
// earlier than its arrival. Returns the number of datagrams admitted.
func (g *Gateway) Admit(floor vtime.Time) int {
	g.mu.Lock()
	batch := g.held
	g.held, g.pending = g.pending, nil
	g.stats.IngressPkts += uint64(len(batch))
	for _, p := range batch {
		g.stats.IngressBytes += uint64(len(p.data))
	}
	g.mu.Unlock()
	if len(batch) == 0 {
		return 0
	}
	at := g.sched.Now()
	if floor > at {
		at = floor
	}
	for _, p := range batch {
		e := g.entries[p.vn]
		data := p.data
		g.sched.At(at, func() { e.sock.SendBytes(e.dst, data) })
	}
	return len(batch)
}

// Pending reports how many real arrivals have not entered virtual time yet.
func (g *Gateway) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending) + len(g.held)
}

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() GatewayStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Close tears the gateway down: the real socket closes and the reader
// drains out. Queued but unadmitted datagrams are discarded.
func (g *Gateway) Close() {
	close(g.closed)
	g.conn.Close()
	g.wg.Wait()
}
