// Package netstack is the from-scratch transport layer that applications
// run over in this reproduction. The paper runs unmodified Linux binaries
// whose kernel TCP stacks drive the emulated pipes; here the same role is
// played by a packet-level TCP (NewReno: slow start, AIMD, fast
// retransmit/recovery, delayed ACKs, RTO per RFC 6298) and UDP, implemented
// over the emulation core's inject/deliver interface.
//
// Everything is event-driven on the single virtual-time loop: there are no
// blocking calls. Applications receive callbacks (OnConnect, OnData, OnMsg,
// OnClose) and send with non-blocking writes.
//
// Application payloads ride the byte stream by reference: WriteMsg attaches
// an object to a range of stream bytes and the receiver's OnMsg fires when
// the last byte of that range is delivered in order — the standard
// packet-simulator pattern for modeling "an application message of size S"
// without serialization.
//
// Packet payloads — TCP segments, UDP datagrams and the RPC frames those
// carry — are recycled through free lists kept per event loop (per
// vtime.Scheduler): the sending host takes one, the receiving host puts it
// back when its input routine returns, and nothing in between may keep the
// *Segment or *Datagram (DESIGN.md §1, "The payload path").
package netstack

import (
	"fmt"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// Injector is where a host's packets enter the network — normally the
// emulation core, optionally wrapped by an edge-node model that adds host
// link serialization or CPU contention.
type Injector interface {
	// Inject offers one packet; false means it was dropped before entering
	// the emulated network (physical drop).
	Inject(src, dst pipes.VN, size int, payload any) bool
}

// Endpoint names one side of a flow.
type Endpoint struct {
	VN   pipes.VN
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("vn%d:%d", e.VN, e.Port) }

// Wire overheads (IPv4, no options).
const (
	TCPHeader = 40 // IP + TCP
	UDPHeader = 28 // IP + UDP
	MSS       = 1460
)

// Host is the network stack of one VN.
type Host struct {
	vn    pipes.VN
	inj   Injector
	sched *vtime.Scheduler

	pool *loopPool // the event loop's payload free lists, shared by its hosts

	udpSocks  map[uint16]*UDPSocket
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	portConns map[uint16]int // connections per local port; made by the first addConn
	nextPort  uint16

	// The connection the previous segment went to: a bulk flow's segments
	// arrive in runs, so onSegment finds most of them with one compare in
	// place of a map lookup. lastConn is nil when there is no memo.
	lastKey  connKey
	lastConn *Conn

	// Stats.
	PktsOut, PktsIn   uint64
	BytesOut, BytesIn uint64
	InjectFailures    uint64
}

// connKey names a connection on its host: local port, remote port and
// remote VN packed into one word, so the demux map hashes an integer and
// not a struct.
type connKey uint64

func makeConnKey(localPort uint16, remote Endpoint) connKey {
	return connKey(localPort)<<48 | connKey(remote.Port)<<32 | connKey(uint32(remote.VN))
}

// addConn and removeConn are the only places a connection enters or leaves
// its host, so conns and portConns cannot disagree, and the demux memo —
// which onSegment fills from conns — never outlives the entry it copied.
func (h *Host) addConn(c *Conn) {
	if h.portConns == nil {
		h.portConns = make(map[uint16]int)
	}
	h.conns[makeConnKey(c.Local.Port, c.Remote)] = c
	h.portConns[c.Local.Port]++
}

func (h *Host) removeConn(c *Conn) {
	delete(h.conns, makeConnKey(c.Local.Port, c.Remote))
	if n := h.portConns[c.Local.Port] - 1; n > 0 {
		h.portConns[c.Local.Port] = n
	} else {
		delete(h.portConns, c.Local.Port)
	}
	if h.lastConn == c {
		h.lastConn = nil
	}
}

// freeList recycles one payload type on one event loop. Every host built on
// the same vtime.Scheduler shares it (through loopPool, the scheduler's
// loop-local slot), so it needs no lock. A payload is taken by the host that
// sends it and put back by the host it is delivered to; between hosts of one
// loop that balances exactly, which per-host lists cannot (a bulk flow moves
// two segments forward for each ACK back).
type freeList[T any] struct {
	free []*T
}

// maxSegFree caps each free list. Payloads that cross a shard or process
// boundary move one way — taken from the sender's loop, put back on the
// receiver's (wire-decoded ones are fresh allocations) — so a loop that
// receives more than it sends would otherwise keep every surplus payload
// forever; past the cap they go back to the garbage collector.
const maxSegFree = 1 << 16

// get returns a zero T.
func (l *freeList[T]) get() *T {
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return p
	}
	return new(T)
}

// put recycles a payload nothing references any more. It is cleared here so
// the list keeps nothing the payload carried alive (Data, Msgs, an
// application object) and get's caller starts from the zero value.
func (l *freeList[T]) put(p *T) {
	if len(l.free) >= maxSegFree {
		return
	}
	var zero T
	*p = zero
	l.free = append(l.free, p)
}

// loopPool is what one event loop recycles: the two packet payloads and the
// RPC frame that rides a Datagram's Obj.
type loopPool struct {
	segs   freeList[Segment]
	dgrams freeList[Datagram]
	frames freeList[rpcFrame]
}

// loopPoolOf returns sched's free lists, installing them on first use.
func loopPoolOf(sched *vtime.Scheduler) *loopPool {
	if p, ok := sched.Local().(*loopPool); ok {
		return p
	}
	p := &loopPool{}
	sched.SetLocal(p)
	return p
}

// Registrar is the delivery side of the network (the emulator).
type Registrar interface {
	RegisterVN(vn pipes.VN, fn func(*pipes.Packet))
}

// NewHost creates the stack for VN vn, registering for packet delivery.
// inj is the packet injection path (usually the same emulator).
func NewHost(vn pipes.VN, sched *vtime.Scheduler, inj Injector, reg Registrar) *Host {
	h := &Host{
		vn:        vn,
		inj:       inj,
		sched:     sched,
		pool:      loopPoolOf(sched),
		udpSocks:  make(map[uint16]*UDPSocket),
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		nextPort:  32768,
	}
	reg.RegisterVN(vn, h.onPacket)
	return h
}

// VN returns the host's virtual node address.
func (h *Host) VN() pipes.VN { return h.vn }

// Scheduler returns the shared virtual-time scheduler.
func (h *Host) Scheduler() *vtime.Scheduler { return h.sched }

// ephemeralPort allocates a local port.
func (h *Host) ephemeralPort() uint16 {
	for i := 0; i < 65536; i++ {
		p := h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 32768
		}
		if p < 1024 {
			continue
		}
		if _, tcp := h.listeners[p]; tcp {
			continue
		}
		if _, udp := h.udpSocks[p]; udp {
			continue
		}
		if h.portConns[p] == 0 {
			return p
		}
	}
	panic("netstack: out of ports")
}

// send pushes a packet into the network. A refused packet never entered it,
// so a refused payload is recycled here. An injector may deliver before it
// returns (loopback), so the payload is not the caller's to read afterwards.
func (h *Host) send(dst pipes.VN, size int, payload any) bool {
	h.PktsOut++
	h.BytesOut += uint64(size)
	if !h.inj.Inject(h.vn, dst, size, payload) {
		h.InjectFailures++
		switch pl := payload.(type) {
		case *Segment:
			h.pool.segs.put(pl)
		case *Datagram:
			h.pool.dgrams.put(pl)
		}
		return false
	}
	return true
}

// onPacket dispatches a delivered packet to the owning socket. It is the
// one place a delivered payload is recycled: onSegment copies out what the
// connection keeps (Data and Msgs slices, never the *Segment), and a
// UDPHandler may keep a datagram's Data and Obj but not the *Datagram.
func (h *Host) onPacket(pkt *pipes.Packet) {
	h.PktsIn++
	h.BytesIn += uint64(pkt.Size)
	switch pl := pkt.Payload.(type) {
	case *Segment:
		h.onSegment(pkt.Src, pl)
		h.pool.segs.put(pl)
	case *Datagram:
		h.onDatagram(pkt.Src, pl)
		h.pool.dgrams.put(pl)
	}
}
