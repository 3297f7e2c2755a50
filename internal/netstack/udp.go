package netstack

import (
	"cmp"
	"fmt"
	"slices"

	"modelnet/internal/pipes"
)

// Datagram is a UDP datagram. Obj optionally carries an application object
// by reference (the simulator-payload pattern); Data optionally carries
// real bytes. Len is the payload size on the wire either way.
//
// Datagrams are recycled exactly as Segments are: the sending host takes one
// off its event loop's free list and the receiving host puts it back when
// the socket's handler returns, so nothing that sees a *Datagram in flight
// (delivery functions, OnDeliver and DropHook observers, a UDPHandler) may
// keep it past its own return. Data and Obj are the application's: the
// struct is cleared on release, what they reference is never touched.
type Datagram struct {
	SrcPort, DstPort uint16
	Len              int
	Data             []byte
	Obj              any
}

// WireSize returns the datagram's on-the-wire size.
func (d *Datagram) WireSize() int { return UDPHeader + d.Len }

func (d *Datagram) String() string {
	return fmt.Sprintf("[udp %d->%d len=%d]", d.SrcPort, d.DstPort, d.Len)
}

// UDPHandler receives inbound datagrams. dg is valid until the handler
// returns, when the host recycles it: read the fields you need inside the
// call. dg.Data and dg.Obj may be kept — the bytes and the object belong to
// the application, only the struct that carried them is reused.
type UDPHandler func(from Endpoint, dg *Datagram)

// UDPSocket is a bound UDP port.
type UDPSocket struct {
	h       *Host
	port    uint16
	handler UDPHandler

	Sent, Rcvd uint64
}

// OpenUDP binds a UDP socket. port 0 picks an ephemeral port.
func (h *Host) OpenUDP(port uint16, handler UDPHandler) (*UDPSocket, error) {
	if port == 0 {
		port = h.ephemeralPort()
	}
	dup, i := h.udpSocket(port)
	if dup != nil {
		return nil, fmt.Errorf("netstack: vn%d udp port %d in use", h.vn, port)
	}
	s := &UDPSocket{h: h, port: port, handler: handler}
	if h.udpSocks == nil {
		h.udpSocks = make([]*UDPSocket, 0, 4)
	}
	h.udpSocks = slices.Insert(h.udpSocks, i, s)
	return s, nil
}

// udpSocket returns the socket bound to port, or nil, with the index it
// holds or would hold in the port-ordered udpSocks.
func (h *Host) udpSocket(port uint16) (*UDPSocket, int) {
	i, ok := slices.BinarySearchFunc(h.udpSocks, port, func(s *UDPSocket, p uint16) int { return cmp.Compare(s.port, p) })
	if !ok {
		return nil, i
	}
	return h.udpSocks[i], i
}

// Addr returns the socket's endpoint.
func (s *UDPSocket) Addr() Endpoint { return Endpoint{s.h.vn, s.port} }

// SendTo transmits size payload bytes (plus UDP/IP headers) carrying obj by
// reference. Returns false when the packet was physically dropped at
// injection; emulated drops in pipes are silent, as in real UDP. obj reaches
// the receiving handler as dg.Obj, the same reference: the stack neither
// copies nor clears what it points to, and forgets it on delivery.
func (s *UDPSocket) SendTo(to Endpoint, size int, obj any) bool {
	return s.sendTo(to, size, nil, obj)
}

// SendBytes transmits real data bytes. data is copied once, here, so the
// caller may reuse its buffer; the receiving handler owns the copy it is
// handed as dg.Data and may keep it.
func (s *UDPSocket) SendBytes(to Endpoint, data []byte) bool {
	return s.sendTo(to, len(data), append([]byte(nil), data...), nil)
}

// sendTo fills a recycled datagram. send may deliver it — and so recycle it —
// before it returns (loopback), so dg is not read after the call.
func (s *UDPSocket) sendTo(to Endpoint, size int, data []byte, obj any) bool {
	dg := s.h.pool.dgrams.get()
	dg.SrcPort, dg.DstPort = s.port, to.Port
	dg.Len, dg.Data, dg.Obj = size, data, obj
	s.Sent++
	return s.h.send(to.VN, dg.WireSize(), dg)
}

// Close unbinds the socket.
func (s *UDPSocket) Close() {
	if cur, i := s.h.udpSocket(s.port); cur != nil {
		s.h.udpSocks = slices.Delete(s.h.udpSocks, i, i+1)
	}
}

// onDatagram dispatches an arriving datagram. Datagrams to unbound ports
// vanish (no ICMP modeled).
func (h *Host) onDatagram(src pipes.VN, dg *Datagram) {
	s, _ := h.udpSocket(dg.DstPort)
	if s == nil {
		return
	}
	s.Rcvd++
	if s.handler != nil {
		s.handler(Endpoint{src, dg.SrcPort}, dg)
	}
}
