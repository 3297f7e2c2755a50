package wire

// Checkpoint is the canonical serialization of one shard's recovery-relevant
// state at a window barrier: scheduler queue identity, outbox/channel
// sequence counters, emulator totals and drop taxonomy, applier bucket
// shape, the dynamics cursor, and every materialized pipe's complete state —
// parameters bit-exact, in-flight entries with their schedules (packet
// payloads via the recursive payload registry), the FIFO delay-line clamps,
// and the lazy generator's draw position.
//
// The blob is canonical: one shard state has exactly one encoding, and the
// decoder rejects anything the encoder would not emit (strict booleans,
// exact trailing length). Federated recovery leans on that — the coordinator
// byte-compares the blob a replayed worker pushes at a barrier against the
// blob the original worker pushed there, so any replay divergence surfaces
// as a loud mismatch instead of silent state drift.

import "fmt"

// CkptEvent is one pending scheduler event's identity (vtime.EventState).
type CkptEvent struct {
	AtNs int64
	Seq  uint64
	Tag  int32
}

// CkptBucket is one pending applier fire-time bucket.
type CkptBucket struct {
	FireNs int64
	Count  uint32
}

// CkptEntry is one in-flight packet inside a pipe with its schedule.
type CkptEntry struct {
	Pkt      PacketWire
	TxDoneNs int64
	ExitNs   int64
}

// CkptPipe is one materialized pipe's complete state.
type CkptPipe struct {
	ID uint32

	// Parameters, bit-exact.
	BandwidthBps float64
	LatencyNs    int64
	LossRate     float64
	QueuePkts    int32
	Down         bool
	HasRED       bool
	REDMinThresh float64
	REDMaxThresh float64
	REDMaxP      float64
	REDWeight    float64

	// Runtime state.
	RedAvg         float64
	RedCount       int64
	RedIdleSinceNs int64
	RedIdle        bool
	LastTxDoneNs   int64
	LastExitNs     int64
	Draws          uint64

	// Counters.
	Accepted  uint64
	Drops     []uint64
	BytesIn   uint64
	BytesOut  uint64
	Delivered uint64

	Entries []CkptEntry
}

// CkptDyn is the dynamics engine cursor (dynamics.EngineState).
type CkptDyn struct {
	Applied   uint64
	Reroutes  uint64
	Down      []uint32
	BasesNs   []int64
	PendingNs []int64
}

// Checkpoint is one shard's barrier state digest, the TCheckpoint body.
type Checkpoint struct {
	Shard uint32
	Cores uint32
	Round uint32 // the coordinator-numbered step round this barrier ends
	NowNs int64

	SchedSeq   uint64
	SchedFired uint64
	Events     []CkptEvent

	OutboxSeq uint64
	Sent      []uint64 // per-peer cumulative data-plane send counters
	Inbox     []uint64 // per-peer contiguous delivered prefixes (collector)

	// Emulator totals + unified drop taxonomy.
	Injected      uint64
	DeliveredPkts uint64
	NoRoute       uint64
	PhysDrops     uint64
	VirtualDrops  uint64
	InFlight      int64
	DropsByReason []uint64

	// DeliverySamples counts collected per-delivery latency samples.
	DeliverySamples uint64

	Buckets []CkptBucket

	HasDyn bool
	Dyn    CkptDyn

	Pipes []CkptPipe
}

// Encode returns the canonical frame body.
func (c *Checkpoint) Encode() []byte {
	var e Enc
	e.U32(c.Shard)
	e.U32(c.Cores)
	e.U32(c.Round)
	e.I64(c.NowNs)
	e.U64(c.SchedSeq)
	e.U64(c.SchedFired)
	e.U32(uint32(len(c.Events)))
	for _, ev := range c.Events {
		e.I64(ev.AtNs)
		e.U64(ev.Seq)
		e.I32(ev.Tag)
	}
	e.U64(c.OutboxSeq)
	e.U32(uint32(len(c.Sent)))
	for _, v := range c.Sent {
		e.U64(v)
	}
	e.U32(uint32(len(c.Inbox)))
	for _, v := range c.Inbox {
		e.U64(v)
	}
	e.U64(c.Injected)
	e.U64(c.DeliveredPkts)
	e.U64(c.NoRoute)
	e.U64(c.PhysDrops)
	e.U64(c.VirtualDrops)
	e.I64(c.InFlight)
	e.U32(uint32(len(c.DropsByReason)))
	for _, v := range c.DropsByReason {
		e.U64(v)
	}
	e.U64(c.DeliverySamples)
	e.U32(uint32(len(c.Buckets)))
	for _, b := range c.Buckets {
		e.I64(b.FireNs)
		e.U32(b.Count)
	}
	e.Bool(c.HasDyn)
	if c.HasDyn {
		e.U64(c.Dyn.Applied)
		e.U64(c.Dyn.Reroutes)
		e.U32(uint32(len(c.Dyn.Down)))
		for _, v := range c.Dyn.Down {
			e.U32(v)
		}
		e.U32(uint32(len(c.Dyn.BasesNs)))
		for _, v := range c.Dyn.BasesNs {
			e.I64(v)
		}
		e.U32(uint32(len(c.Dyn.PendingNs)))
		for _, v := range c.Dyn.PendingNs {
			e.I64(v)
		}
	}
	e.U32(uint32(len(c.Pipes)))
	for i := range c.Pipes {
		appendCkptPipe(&e, &c.Pipes[i])
	}
	return e.Bytes()
}

func appendCkptPipe(e *Enc, p *CkptPipe) {
	e.U32(p.ID)
	e.F64(p.BandwidthBps)
	e.I64(p.LatencyNs)
	e.F64(p.LossRate)
	e.I32(p.QueuePkts)
	e.Bool(p.Down)
	e.Bool(p.HasRED)
	if p.HasRED {
		e.F64(p.REDMinThresh)
		e.F64(p.REDMaxThresh)
		e.F64(p.REDMaxP)
		e.F64(p.REDWeight)
	}
	e.F64(p.RedAvg)
	e.I64(p.RedCount)
	e.I64(p.RedIdleSinceNs)
	e.Bool(p.RedIdle)
	e.I64(p.LastTxDoneNs)
	e.I64(p.LastExitNs)
	e.U64(p.Draws)
	e.U64(p.Accepted)
	e.U32(uint32(len(p.Drops)))
	for _, v := range p.Drops {
		e.U64(v)
	}
	e.U64(p.BytesIn)
	e.U64(p.BytesOut)
	e.U64(p.Delivered)
	e.U32(uint32(len(p.Entries)))
	for i := range p.Entries {
		appendPacketWire(e, &p.Entries[i].Pkt)
		e.I64(p.Entries[i].TxDoneNs)
		e.I64(p.Entries[i].ExitNs)
	}
}

// DecodeCheckpoint parses a TCheckpoint body. Decoding is total: corrupt or
// truncated input errors, never panics (FuzzDecodeCheckpoint pins this).
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	d := NewDec(b)
	c := &Checkpoint{
		Shard:      d.U32(),
		Cores:      d.U32(),
		Round:      d.U32(),
		NowNs:      d.I64(),
		SchedSeq:   d.U64(),
		SchedFired: d.U64(),
	}
	n := d.Len(8 + 8 + 4)
	for i := 0; i < n; i++ {
		c.Events = append(c.Events, CkptEvent{AtNs: d.I64(), Seq: d.U64(), Tag: d.I32()})
	}
	c.OutboxSeq = d.U64()
	n = d.Len(8)
	for i := 0; i < n; i++ {
		c.Sent = append(c.Sent, d.U64())
	}
	n = d.Len(8)
	for i := 0; i < n; i++ {
		c.Inbox = append(c.Inbox, d.U64())
	}
	c.Injected = d.U64()
	c.DeliveredPkts = d.U64()
	c.NoRoute = d.U64()
	c.PhysDrops = d.U64()
	c.VirtualDrops = d.U64()
	c.InFlight = d.I64()
	n = d.Len(8)
	for i := 0; i < n; i++ {
		c.DropsByReason = append(c.DropsByReason, d.U64())
	}
	c.DeliverySamples = d.U64()
	n = d.Len(8 + 4)
	for i := 0; i < n; i++ {
		c.Buckets = append(c.Buckets, CkptBucket{FireNs: d.I64(), Count: d.U32()})
	}
	hasDyn, err := d.StrictBool()
	if err != nil {
		return nil, err
	}
	c.HasDyn = hasDyn
	if c.HasDyn {
		c.Dyn.Applied = d.U64()
		c.Dyn.Reroutes = d.U64()
		n = d.Len(4)
		for i := 0; i < n; i++ {
			c.Dyn.Down = append(c.Dyn.Down, d.U32())
		}
		n = d.Len(8)
		for i := 0; i < n; i++ {
			c.Dyn.BasesNs = append(c.Dyn.BasesNs, d.I64())
		}
		n = d.Len(8)
		for i := 0; i < n; i++ {
			c.Dyn.PendingNs = append(c.Dyn.PendingNs, d.I64())
		}
	}
	n = d.Len(1)
	for i := 0; i < n; i++ {
		p, err := decodeCkptPipe(d)
		if err != nil {
			return nil, err
		}
		c.Pipes = append(c.Pipes, p)
		if d.Err() != nil {
			break // truncated: stop growing, Done reports it
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	for i := 1; i < len(c.Pipes); i++ {
		if c.Pipes[i].ID <= c.Pipes[i-1].ID {
			return nil, fmt.Errorf("wire: checkpoint pipes not in ID order at index %d", i)
		}
	}
	return c, nil
}

func decodeCkptPipe(d *Dec) (CkptPipe, error) {
	p := CkptPipe{
		ID:           d.U32(),
		BandwidthBps: d.F64(),
		LatencyNs:    d.I64(),
		LossRate:     d.F64(),
		QueuePkts:    d.I32(),
	}
	var err error
	if p.Down, err = d.StrictBool(); err != nil {
		return p, err
	}
	if p.HasRED, err = d.StrictBool(); err != nil {
		return p, err
	}
	if p.HasRED {
		p.REDMinThresh = d.F64()
		p.REDMaxThresh = d.F64()
		p.REDMaxP = d.F64()
		p.REDWeight = d.F64()
	}
	p.RedAvg = d.F64()
	p.RedCount = d.I64()
	p.RedIdleSinceNs = d.I64()
	if p.RedIdle, err = d.StrictBool(); err != nil {
		return p, err
	}
	p.LastTxDoneNs = d.I64()
	p.LastExitNs = d.I64()
	p.Draws = d.U64()
	p.Accepted = d.U64()
	n := d.Len(8)
	for i := 0; i < n; i++ {
		p.Drops = append(p.Drops, d.U64())
	}
	p.BytesIn = d.U64()
	p.BytesOut = d.U64()
	p.Delivered = d.U64()
	n = d.Len(1)
	for i := 0; i < n; i++ {
		var en CkptEntry
		en.Pkt = decodePacketWire(d)
		en.TxDoneNs = d.I64()
		en.ExitNs = d.I64()
		p.Entries = append(p.Entries, en)
		if d.Err() != nil {
			break
		}
	}
	return p, nil
}

// Fail is the fault-injection directive (TFail): the worker exits with a
// distinctive status the moment it receives its Round-th TStep frame. It is
// sent once, right after setup, and never replayed to a respawned worker —
// recovery must not re-arm the crash it is recovering from.
type Fail struct {
	Round uint32 // 1-based coordinator step-round number
}

// Encode returns the frame body.
func (m Fail) Encode() []byte {
	var e Enc
	e.U32(m.Round)
	return e.Bytes()
}

// DecodeFail parses a TFail body.
func DecodeFail(b []byte) (Fail, error) {
	d := NewDec(b)
	m := Fail{Round: d.U32()}
	return m, d.Done()
}

// Recover tells a respawned worker it is a replay replica (TRecover): its
// data-plane sends to peer j are suppressed while its cumulative counter is
// at or below Sent[j] — the prefix the fleet already consumed — but still
// logged, so a later recovery can resend them.
type Recover struct {
	Sent []uint64
}

// Encode returns the frame body.
func (m Recover) Encode() []byte {
	var e Enc
	e.U32(uint32(len(m.Sent)))
	for _, v := range m.Sent {
		e.U64(v)
	}
	return e.Bytes()
}

// DecodeRecover parses a TRecover body.
func DecodeRecover(b []byte) (Recover, error) {
	d := NewDec(b)
	var m Recover
	n := d.Len(8)
	for i := 0; i < n; i++ {
		m.Sent = append(m.Sent, d.U64())
	}
	return m, d.Done()
}

// Resend directs a worker to retransmit its whole logged send history to
// the (respawned) peer (TResend), re-establishing the dense channel prefix
// the peer's fresh collector expects.
type Resend struct {
	Peer uint32
}

// Encode returns the frame body.
func (m Resend) Encode() []byte {
	var e Enc
	e.U32(m.Peer)
	return e.Bytes()
}

// DecodeResend parses a TResend body.
func DecodeResend(b []byte) (Resend, error) {
	d := NewDec(b)
	m := Resend{Peer: d.U32()}
	return m, d.Done()
}
