package wire

// Bodies of the synchronization and data-plane frames. Each message has an
// Encode method producing its frame body and a decode function that is
// total over arbitrary input.

import (
	"fmt"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// Counts reports a worker's cumulative per-peer message counters: Sent[j]
// is the total number of data-plane messages this worker has ever sent to
// shard j. Cumulative counters make barrier accounting independent of when
// frames physically move.
type Counts struct {
	Now  int64 // the worker's virtual clock
	Sent []uint64
}

// Encode returns the frame body.
func (m Counts) Encode() []byte {
	var e Enc
	e.I64(m.Now)
	e.U32(uint32(len(m.Sent)))
	for _, s := range m.Sent {
		e.U64(s)
	}
	return e.Bytes()
}

// DecodeCounts parses a Counts body (StepDone carries one).
func DecodeCounts(b []byte) (Counts, error) {
	d := NewDec(b)
	m := Counts{Now: d.I64()}
	n := d.Len(8)
	for i := 0; i < n; i++ {
		m.Sent = append(m.Sent, d.U64())
	}
	return m, d.Done()
}

// Step is one barrier round's command to a worker, parcore.Cmd on the wire:
// await the Expect channel prefixes — Expect[j] is the cumulative number of
// data-plane messages shard j has reported sending here — apply them in
// canonical order, run the shard through Grant (inclusive), flush the
// outbox, and reply with TStepDone. Channel prefixes — rather than a single
// total — make the barrier immune to cross-channel arrival races: a peer's
// next-round messages can already be in flight while this worker still
// awaits the current round.
type Step struct {
	// Floor is the stamp floor for live-edge admissions (parcore.Cmd.Floor),
	// strictly above every grant of the round.
	Floor int64
	Grant int64 // the shard's window grant; < 0 = report bounds, do not run
	// Drain makes the step a serial-drain turn at time Grant: run only if
	// the next event is due by then.
	Drain bool
	// Ckpt asks the worker to push a TCheckpoint digest after this step's
	// TStepDone. The flag is coordinator-driven — a worker counting rounds
	// itself would desynchronize when recovery retries a round.
	Ckpt   bool
	Expect []uint64
}

// Encode returns the frame body.
func (m Step) Encode() []byte {
	var e Enc
	e.I64(m.Floor)
	e.I64(m.Grant)
	e.Bool(m.Drain)
	e.Bool(m.Ckpt)
	e.U32(uint32(len(m.Expect)))
	for _, x := range m.Expect {
		e.U64(x)
	}
	return e.Bytes()
}

// DecodeStep parses a TStep body.
func DecodeStep(b []byte) (Step, error) {
	d := NewDec(b)
	m := Step{Floor: d.I64(), Grant: d.I64()}
	var err error
	if m.Drain, err = d.StrictBool(); err != nil {
		return Step{}, err
	}
	if m.Ckpt, err = d.StrictBool(); err != nil {
		return Step{}, err
	}
	n := d.Len(8)
	for i := 0; i < n; i++ {
		m.Expect = append(m.Expect, d.U64())
	}
	return m, d.Done()
}

// StepDone reports a step's outcome: the worker's cumulative send counters
// (settling the messages its step just flushed), whether a drain turn ran
// anything, and its bounds after the run. SafeTo, when non-empty, is the
// per-peer bound vector (parcore.Bounds.SafeTo); a shard that cannot compute
// one (non-eager profile) sends none. The bounds predate the application of any
// messages still in flight toward this worker — parcore.Drive compensates
// with the reaction-chain floor before feeding them to the grant algebra.
type StepDone struct {
	Counts     Counts
	Progressed bool
	Next, Safe int64
	SafeTo     []int64
}

// Encode returns the frame body.
func (m StepDone) Encode() []byte {
	var e Enc
	e.Blob(m.Counts.Encode())
	e.Bool(m.Progressed)
	e.I64(m.Next)
	e.I64(m.Safe)
	e.U32(uint32(len(m.SafeTo)))
	for _, s := range m.SafeTo {
		e.I64(s)
	}
	return e.Bytes()
}

// DecodeStepDone parses a TStepDone body.
func DecodeStepDone(b []byte) (StepDone, error) {
	d := NewDec(b)
	cb := d.Blob()
	var m StepDone
	var err error
	if m.Progressed, err = d.StrictBool(); err != nil {
		return StepDone{}, err
	}
	m.Next, m.Safe = d.I64(), d.I64()
	n := d.Len(8)
	for i := 0; i < n; i++ {
		m.SafeTo = append(m.SafeTo, d.I64())
	}
	if err := d.Done(); err != nil {
		return StepDone{}, err
	}
	if m.Counts, err = DecodeCounts(cb); err != nil {
		return StepDone{}, err
	}
	return m, nil
}

// Data message kinds.
const (
	KindTunnel   uint8 = 0 // enqueue Pkt into pipe Pid at time At
	KindDelivery uint8 = 1 // complete Pkt's delivery at At with lag Lag
)

// PacketWire is the on-the-wire form of pipes.Packet. Payload is the
// packet payload's complete registry encoding (EncodePayload: u16 type id
// + codec body, nested payloads inline); a nil payload encodes as the two
// bytes of PayloadNil.
type PacketWire struct {
	Seq      uint64
	Size     int32
	Src, Dst int32
	Route    []int32
	Hop      int32
	Injected int64
	Lag      int64
	Trace    uint64 // mode-invariant trace ID; 0 when tracing is off
	Epoch    int32  // injection-time reroute epoch (pipes.Packet.Epoch)
	Payload  []byte
}

// appendPacketWire encodes a packet descriptor into e.
func appendPacketWire(e *Enc, p *PacketWire) {
	e.U64(p.Seq)
	e.I32(p.Size)
	e.I32(p.Src)
	e.I32(p.Dst)
	e.U32(uint32(len(p.Route)))
	for _, r := range p.Route {
		e.I32(r)
	}
	e.I32(p.Hop)
	e.I64(p.Injected)
	e.I64(p.Lag)
	e.U64(p.Trace)
	e.I32(p.Epoch)
	e.Blob(p.Payload)
}

// decodePacketWire reads a packet descriptor from d (errors are sticky on
// the decoder; structural validation is checkDataMsg's).
func decodePacketWire(d *Dec) PacketWire {
	p := PacketWire{
		Seq:  d.U64(),
		Size: d.I32(),
		Src:  d.I32(),
		Dst:  d.I32(),
	}
	n := d.Len(4)
	for i := 0; i < n; i++ {
		p.Route = append(p.Route, d.I32())
	}
	p.Hop = d.I32()
	p.Injected = d.I64()
	p.Lag = d.I64()
	p.Trace = d.U64()
	p.Epoch = d.I32()
	p.Payload = append([]byte(nil), d.Blob()...)
	return p
}

// checkDataMsg validates the structural invariants of one data message.
func checkDataMsg(kind uint8, pid int32, p *PacketWire) error {
	if kind != KindTunnel && kind != KindDelivery {
		return fmt.Errorf("wire: unknown data kind %d", kind)
	}
	if kind == KindTunnel && pid < 0 {
		return fmt.Errorf("wire: tunnel message with pipe %d", pid)
	}
	if p.Hop < 0 || int(p.Hop) > len(p.Route) {
		return fmt.Errorf("wire: hop %d outside route of %d pipes", p.Hop, len(p.Route))
	}
	return nil
}

// DataMsg is one cross-core event, an element of a DataBatch: a tunnel
// entry or delivery completion carrying the packet descriptor (and, without
// payload caching, its payload) between core processes — the §2.2
// core-to-core tunnel made literal. The batch header carries what the whole
// run shares: the Sender, and the per-channel sequence, which is implicit —
// element i of a batch is message TSeq0+i on the sender→receiver channel.
type DataMsg struct {
	Seq  uint64 // the sender's outbox sequence (canonical-order tiebreak)
	Kind uint8
	Pid  int32
	At   int64
	Lag  int64
	Fire int64
	Pkt  PacketWire
}

// dataMsgMinBytes is the encoded size of a DataMsg with an empty route and
// payload, used to bounds-check batch element counts before allocating.
const dataMsgMinBytes = 37 + 62

// Encode returns the element's encoding (one slot of a batch body).
func (m DataMsg) Encode() []byte {
	var e Enc
	m.append(&e)
	return e.Bytes()
}

func (m DataMsg) append(e *Enc) {
	e.U64(m.Seq)
	e.U8(m.Kind)
	e.I32(m.Pid)
	e.I64(m.At)
	e.I64(m.Lag)
	e.I64(m.Fire)
	appendPacketWire(e, &m.Pkt)
}

func decodeDataMsg(d *Dec) DataMsg {
	m := DataMsg{
		Seq:  d.U64(),
		Kind: d.U8(),
		Pid:  d.I32(),
		At:   d.I64(),
		Lag:  d.I64(),
		Fire: d.I64(),
	}
	m.Pkt = decodePacketWire(d)
	return m
}

// DataBatch is a dense run of cross-core tunnel messages from one sender:
// element i carries channel sequence TSeq0+i. The data plane coalesces each
// window's messages per peer into one batch, chunked under the plane's
// datagram bound, so frame and syscall cost is per window, not per message.
type DataBatch struct {
	Sender uint16
	TSeq0  uint64 // channel sequence of element 0; dense, 1-based
	// Close, when nonzero, marks the batch as the last chunk of a flush:
	// it is the sender's cumulative channel count after this batch's final
	// element. Receivers use it as a loss diagnostic — a channel whose
	// close marker covers the barrier's expectation but whose contiguous
	// prefix does not has lost a datagram, and the eventual timeout can say
	// so instead of guessing.
	Close uint64
	Msgs  []DataMsg
}

// Encode returns the frame body.
func (m DataBatch) Encode() []byte {
	var e Enc
	e.U16(m.Sender)
	e.U64(m.TSeq0)
	e.U64(m.Close)
	e.U32(uint32(len(m.Msgs)))
	for _, x := range m.Msgs {
		x.append(&e)
	}
	return e.Bytes()
}

// EncodeDataBatch assembles a batch frame body from pre-encoded elements
// (DataMsg.Encode results). The data plane encodes each message once and
// reuses the bytes across chunk boundaries.
func EncodeDataBatch(sender uint16, tseq0, close uint64, elems [][]byte) []byte {
	n := 2 + 8 + 8 + 4
	for _, el := range elems {
		n += len(el)
	}
	var e Enc
	e.b = make([]byte, 0, n)
	e.U16(sender)
	e.U64(tseq0)
	e.U64(close)
	e.U32(uint32(len(elems)))
	for _, el := range elems {
		e.b = append(e.b, el...)
	}
	return e.Bytes()
}

// DecodeDataBatch parses a TDataBatch body.
func DecodeDataBatch(b []byte) (DataBatch, error) {
	d := NewDec(b)
	m := DataBatch{Sender: d.U16(), TSeq0: d.U64(), Close: d.U64()}
	n := d.Len(dataMsgMinBytes)
	for i := 0; i < n; i++ {
		m.Msgs = append(m.Msgs, decodeDataMsg(d))
	}
	if err := d.Done(); err != nil {
		return DataBatch{}, err
	}
	if len(m.Msgs) == 0 {
		return DataBatch{}, fmt.Errorf("wire: empty data batch")
	}
	if m.TSeq0 == 0 {
		return DataBatch{}, fmt.Errorf("wire: data batch with zero channel sequence")
	}
	if m.TSeq0+uint64(len(m.Msgs)) < m.TSeq0 {
		return DataBatch{}, fmt.Errorf("wire: data batch channel sequence overflow")
	}
	if m.Close != 0 && m.Close != m.TSeq0+uint64(len(m.Msgs))-1 {
		return DataBatch{}, fmt.Errorf("wire: data batch close marker %d does not cover elements %d..%d",
			m.Close, m.TSeq0, m.TSeq0+uint64(len(m.Msgs))-1)
	}
	for i := range m.Msgs {
		x := &m.Msgs[i]
		if err := checkDataMsg(x.Kind, x.Pid, &x.Pkt); err != nil {
			return DataBatch{}, err
		}
	}
	return m, nil
}

// EncodePacket converts a live packet to wire form, encoding its payload
// through the registry.
func EncodePacket(pkt *pipes.Packet) (PacketWire, error) {
	pb, err := EncodePayload(pkt.Payload)
	if err != nil {
		return PacketWire{}, fmt.Errorf("wire: packet %d %v->%v: %w", pkt.Seq, pkt.Src, pkt.Dst, err)
	}
	route := make([]int32, len(pkt.Route))
	for i, r := range pkt.Route {
		route[i] = int32(r)
	}
	return PacketWire{
		Seq:      pkt.Seq,
		Size:     int32(pkt.Size),
		Src:      int32(pkt.Src),
		Dst:      int32(pkt.Dst),
		Route:    route,
		Hop:      int32(pkt.Hop),
		Injected: int64(pkt.Injected),
		Lag:      int64(pkt.Lag),
		Trace:    pkt.Trace,
		Epoch:    pkt.Epoch,

		Payload: pb,
	}, nil
}

// Packet reconstructs the live packet, decoding the payload through the
// registry.
func (p *PacketWire) Packet() (*pipes.Packet, error) {
	payload, err := DecodePayload(p.Payload)
	if err != nil {
		return nil, err
	}
	route := make([]pipes.ID, len(p.Route))
	for i, r := range p.Route {
		route[i] = pipes.ID(r)
	}
	return &pipes.Packet{
		Seq:      p.Seq,
		Size:     int(p.Size),
		Src:      pipes.VN(p.Src),
		Dst:      pipes.VN(p.Dst),
		Route:    route,
		Hop:      int(p.Hop),
		Injected: vtime.Time(p.Injected),
		Lag:      vtime.Duration(p.Lag),
		Trace:    p.Trace,
		Epoch:    p.Epoch,
		Payload:  payload,
	}, nil
}
