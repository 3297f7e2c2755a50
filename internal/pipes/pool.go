package pipes

// PacketPool is a free list of Packet descriptors. The emulation data path
// allocates one descriptor per injected packet and drops it at delivery or
// drop; at hundreds of thousands of packets per emulated second that
// allocation rate is pure scheduler overhead, so the core recycles
// descriptors instead. Not safe for concurrent use: each emulator (shard)
// owns a private pool touched only from its own event loop.
type PacketPool struct {
	free []*Packet
}

// Get returns a descriptor, reusing a recycled one when available. The
// caller initialises it — every user assigns the whole struct — so a recycled
// descriptor still carries its last packet's scalar fields; only its
// references are gone (see Put).
func (p *PacketPool) Get() *Packet {
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pkt
	}
	return &Packet{}
}

// maxPoolFree caps the free list. A shard that receives more cross-core
// packets than it injects (wire-decoded descriptors are fresh allocations)
// would otherwise retain every surplus descriptor forever; past the cap,
// descriptors go back to the garbage collector.
const maxPoolFree = 1 << 16

// Put recycles a descriptor the caller no longer references. It drops the
// Route and Payload references, which may be shared with live packets and
// must not be retained by the free list; the scalar fields are left for
// Get's caller to overwrite, so a descriptor is cleared once per use, not
// twice.
func (p *PacketPool) Put(pkt *Packet) {
	if pkt == nil || len(p.free) >= maxPoolFree {
		return
	}
	pkt.Route, pkt.Payload = nil, nil
	p.free = append(p.free, pkt)
}

// Len reports the number of descriptors currently in the free list.
func (p *PacketPool) Len() int { return len(p.free) }
