package netstack

import (
	"errors"
	"fmt"
	"sort"

	"modelnet/internal/vtime"
)

// Segment is a TCP segment. Stream offsets are 64-bit and never wrap
// (sequence arithmetic is exact; 32-bit wraparound is not modeled). The SYN
// occupies offset 0 and data starts at offset 1; a FIN occupies one offset
// after the last data byte, as in real TCP.
//
// Segments are recycled: the sending host takes one off its event loop's
// free list and the receiving host puts it back when its input routine
// returns, so nothing that sees a *Segment in flight (delivery functions,
// OnDeliver and DropHook observers) may keep it past its own return.
type Segment struct {
	SrcPort, DstPort      uint16
	Seq                   uint64 // stream offset of first payload byte
	Ack                   uint64 // next expected peer offset (valid when HasACK)
	Len                   int    // payload bytes
	SYN, HasACK, FIN, RST bool
	Window                int // advertised receive window, bytes

	// Data optionally carries real payload bytes (nil = synthetic bytes).
	Data []byte
	// Msgs marks application objects whose final stream byte falls inside
	// this segment; the receiver delivers each object via OnMsg when the
	// stream is contiguous through End.
	Msgs []MsgMarker
}

// MsgMarker binds an application object to the stream offset just past its
// final byte.
type MsgMarker struct {
	End uint64
	Obj any
}

// WireSize returns the segment's on-the-wire size.
func (s *Segment) WireSize() int { return TCPHeader + s.Len }

func (s *Segment) String() string {
	fl := ""
	if s.SYN {
		fl += "S"
	}
	if s.HasACK {
		fl += "A"
	}
	if s.FIN {
		fl += "F"
	}
	if s.RST {
		fl += "R"
	}
	return fmt.Sprintf("[%d->%d seq=%d ack=%d len=%d %s]", s.SrcPort, s.DstPort, s.Seq, s.Ack, s.Len, fl)
}

// Handlers are the application callbacks for a connection. Any field may be
// nil. OnData reports n in-order bytes (data is non-nil only when the peer
// wrote real bytes). OnClose fires once, when the peer's FIN is consumed,
// the connection is reset (err != nil), or it is aborted locally.
type Handlers struct {
	OnConnect func(c *Conn)
	OnData    func(c *Conn, n int, data []byte)
	OnMsg     func(c *Conn, obj any)
	OnClose   func(c *Conn, err error)
}

// ErrReset reports a connection terminated by RST.
var ErrReset = errors.New("netstack: connection reset")

// ErrTimeout reports a connection that gave up retransmitting.
var ErrTimeout = errors.New("netstack: connection timed out")

type tcpState int

const (
	stateSynSent tcpState = iota
	stateSynRcvd
	stateEstablished
	stateClosed
)

// TCP tuning constants; era-appropriate (Linux 2.4-ish) values.
const (
	DefaultWindow  = 64 << 10
	initialCwndMSS = 2
	minRTO         = 200 * vtime.Millisecond
	maxRTO         = 60 * vtime.Second
	initialRTO     = 1 * vtime.Second
	delAckTimeout  = 200 * vtime.Millisecond
	delAckSegs     = 2
	maxSynRetries  = 6
	maxRetries     = 12
)

// chunk is a contiguous range of queued send-stream bytes.
type chunk struct {
	start uint64
	n     int
	data  []byte
	obj   any // delivered to the peer's OnMsg when its last byte arrives
}

// fifo is a queue consumed from the front in place. Reslicing the front away
// would shed capacity with every pop and rebuilding the slice allocates on
// every pop; a head index costs neither.
type fifo[T any] struct {
	q    []T
	head int
}

// live is the queued part, oldest first.
func (f *fifo[T]) live() []T { return f.q[f.head:] }

func (f *fifo[T]) push(v T) { f.q = append(f.q, v) }

// insert places v at index i of the queued part.
func (f *fifo[T]) insert(i int, v T) {
	f.q = append(f.q, v)
	live := f.live()
	copy(live[i+1:], live[i:])
	live[i] = v
}

// drop removes the n oldest elements. They are zeroed so what they reference
// can be collected, and the space is reclaimed once the dead prefix
// dominates (the pipes.Pipe.compact rule).
func (f *fifo[T]) drop(n int) {
	clear(f.q[f.head : f.head+n])
	f.head += n
	switch {
	case f.head == len(f.q):
		f.q, f.head = f.q[:0], 0
	case f.head > 64 && f.head*2 > len(f.q):
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
}

// oooSeg is an out-of-order received segment awaiting the gap fill.
type oooSeg struct {
	seq  uint64
	n    int
	data []byte
	msgs []MsgMarker
}

// Conn is one TCP connection (NewReno congestion control).
type Conn struct {
	h        *Host
	Local    Endpoint
	Remote   Endpoint
	handlers Handlers
	state    tcpState

	// Send state.
	sndUna     uint64 // oldest unacknowledged offset
	sndNxt     uint64 // next offset to send
	sndBufEnd  uint64 // offset past the last queued byte (starts at 1)
	finOff     uint64 // offset of our FIN; 0 = not closing
	finAcked   bool
	chunks     fifo[chunk]
	cwnd       float64 // congestion window, bytes
	ssthresh   float64
	rwnd       int // peer's advertised window
	dupAcks    int
	inRecovery bool
	recover    uint64 // sndNxt at loss detection (NewReno)

	// RTT estimation (RFC 6298) + Karn's algorithm.
	srtt, rttvar vtime.Duration
	rto          vtime.Duration
	rttActive    bool
	rttSeq       uint64
	rttAt        vtime.Time
	rtxTimer     *vtime.Timer
	rtxFire      func() // c.onRtxTimeout, bound once: armRtx runs per ACK
	rtxDirty     bool   // the timer restarts from now; trySend arms it once, last
	retries      int

	// Receive state.
	rcvNxt      uint64
	ooo         fifo[oooSeg]    // sorted by seq
	pendingMsgs fifo[MsgMarker] // sorted by End
	peerFinOff  uint64          // offset of peer FIN; 0 = none seen
	peerFinDone bool
	ackPending  int
	ackTimer    *vtime.Timer
	ackFire     func() // c.ackNow, bound once
	window      int

	// Stats.
	Retransmits    uint64
	FastRecoveries uint64
	Timeouts       uint64
	BytesSent      uint64 // acked bytes
	BytesRcvd      uint64 // in-order delivered bytes
	Established    vtime.Time
	closed         bool // OnClose delivered
	removed        bool
}

// Listener accepts inbound connections on a port.
type Listener struct {
	h      *Host
	port   uint16
	accept func(*Conn) Handlers
}

// Listen starts accepting connections on port. The accept callback runs for
// each inbound SYN and returns the new connection's handlers.
func (h *Host) Listen(port uint16, accept func(*Conn) Handlers) (*Listener, error) {
	if _, dup := h.listeners[port]; dup {
		return nil, fmt.Errorf("netstack: vn%d port %d already listening", h.vn, port)
	}
	l := &Listener{h: h, port: port, accept: accept}
	if h.listeners == nil {
		h.listeners = make(map[uint16]*Listener)
	}
	h.listeners[port] = l
	return l, nil
}

// Close stops accepting new connections; established ones are unaffected.
func (l *Listener) Close() { delete(l.h.listeners, l.port) }

// Dial opens a connection to remote. The returned Conn is usable for
// writing immediately (bytes flow once the handshake completes);
// hs.OnConnect fires on establishment.
func (h *Host) Dial(remote Endpoint, hs Handlers) *Conn {
	c := h.newConn(h.ephemeralPort(), remote, hs)
	c.state = stateSynSent
	c.sendSYN()
	return c
}

func (h *Host) newConn(localPort uint16, remote Endpoint, hs Handlers) *Conn {
	c := &Conn{
		h:         h,
		Local:     Endpoint{h.vn, localPort},
		Remote:    remote,
		handlers:  hs,
		sndBufEnd: 1,
		cwnd:      initialCwndMSS * MSS,
		ssthresh:  DefaultWindow,
		rwnd:      DefaultWindow,
		rto:       initialRTO,
		window:    DefaultWindow,
	}
	// Both timers' callbacks transmit only through this host, so their
	// pending deadlines can be priced with this VN's own crossing distance
	// by the parallel runtime's horizon scan.
	c.rtxTimer = vtime.NewTaggedTimer(h.sched, int32(h.vn))
	c.ackTimer = vtime.NewTaggedTimer(h.sched, int32(h.vn))
	c.rtxFire = c.onRtxTimeout
	c.ackFire = c.ackNow
	h.addConn(c)
	return c
}

// Write queues real bytes on the send stream.
func (c *Conn) Write(data []byte) {
	if c.finOff != 0 || c.removed {
		return
	}
	cp := append([]byte(nil), data...)
	c.chunks.push(chunk{start: c.sndBufEnd, n: len(cp), data: cp})
	c.sndBufEnd += uint64(len(cp))
	c.trySend()
}

// WriteCount queues n synthetic bytes (bulk transfer without materializing
// payloads).
func (c *Conn) WriteCount(n int) {
	if n <= 0 || c.finOff != 0 || c.removed {
		return
	}
	c.chunks.push(chunk{start: c.sndBufEnd, n: n})
	c.sndBufEnd += uint64(n)
	c.trySend()
}

// WriteMsg queues an application object occupying size stream bytes; the
// peer's OnMsg fires when the whole message has arrived in order.
func (c *Conn) WriteMsg(obj any, size int) {
	if size <= 0 || c.finOff != 0 || c.removed {
		return
	}
	c.chunks.push(chunk{start: c.sndBufEnd, n: size, obj: obj})
	c.sndBufEnd += uint64(size)
	c.trySend()
}

// Close sends a FIN after all queued data; further writes are discarded.
func (c *Conn) Close() {
	if c.finOff != 0 || c.removed {
		return
	}
	c.finOff = c.sndBufEnd
	c.trySend()
}

// Abort resets the connection immediately.
func (c *Conn) Abort() {
	if c.removed {
		return
	}
	seg := c.ackSeg(c.sndNxt)
	seg.RST = true
	c.transmit(seg)
	c.teardown(nil)
}

// Cwnd reports the current congestion window in bytes.
func (c *Conn) Cwnd() int { return int(c.cwnd) }

// SRTT reports the smoothed RTT estimate (0 before the first sample).
func (c *Conn) SRTT() vtime.Duration { return c.srtt }

// ---- send path ----

// ackSeg takes a segment off the loop's free list and fills in what every
// segment after the handshake carries: its offset and the current ACK.
func (c *Conn) ackSeg(seq uint64) *Segment {
	seg := c.h.pool.segs.get()
	seg.Seq = seq
	seg.HasACK = true
	seg.Ack = c.rcvNxt
	return seg
}

func (c *Conn) sendSYN() {
	seg := c.h.pool.segs.get()
	seg.SYN = true
	if c.state == stateSynRcvd {
		seg.HasACK = true
		seg.Ack = c.rcvNxt
	}
	c.sndNxt = 1
	c.transmit(seg)
	c.armRtx()
}

// trySend transmits as much queued data as the congestion and peer windows
// allow, then a FIN if due, and then restarts the retransmit timer if any of
// that — or the ACK that led here — asked for it.
//
// One arm where there used to be one per segment: every elided arm would
// have been canceled by the next before any event could fire (nothing fires
// inside an input routine), all of them compute the same now+rto, and event
// sequence numbers only ever grow, so the surviving arm sits exactly where
// the last of them sat relative to every other pending event.
func (c *Conn) trySend() {
	c.sendQueued()
	if c.rtxDirty {
		c.rtxDirty = false
		c.armRtx()
	}
}

func (c *Conn) sendQueued() {
	if c.removed || c.state != stateEstablished {
		return // closed, or waiting for the handshake
	}
	dataEnd := c.sndBufEnd
	for {
		wnd := int(c.cwnd)
		if c.rwnd < wnd {
			wnd = c.rwnd
		}
		inFlight := int(c.sndNxt - c.sndUna)
		if c.sndNxt < dataEnd {
			n := int(dataEnd - c.sndNxt)
			if n > MSS {
				n = MSS
			}
			if inFlight+n > wnd {
				// Allow one full segment when nothing is in flight so a
				// tiny window can't deadlock the stream.
				if inFlight > 0 {
					return
				}
			}
			c.rtxDirty = true
			c.sendData(c.sndNxt, n, false)
			c.sndNxt += uint64(n)
			continue
		}
		if c.finOff != 0 && c.sndNxt == c.finOff {
			c.rtxDirty = true
			c.sendFIN()
			c.sndNxt = c.finOff + 1
		}
		return
	}
}

// sendData transmits the stream range [off, off+n); rtx marks retransmits.
func (c *Conn) sendData(off uint64, n int, rtx bool) {
	seg := c.ackSeg(off)
	seg.Len = n
	seg.Data, seg.Msgs = c.gather(off, n)
	if rtx {
		c.Retransmits++
	} else if !c.rttActive {
		// One RTT sample in flight at a time (Karn's algorithm).
		c.rttActive = true
		c.rttSeq = off + uint64(n)
		c.rttAt = c.h.sched.Now()
	}
	c.transmit(seg)
}

// gather materializes data bytes and message markers for a stream range.
func (c *Conn) gather(off uint64, n int) ([]byte, []MsgMarker) {
	var buf []byte
	var msgs []MsgMarker
	end := off + uint64(n)
	chunks := c.chunks.live()
	for i := range chunks {
		ch := &chunks[i]
		chEnd := ch.start + uint64(ch.n)
		if chEnd <= off {
			continue
		}
		if ch.start >= end {
			break
		}
		if ch.data != nil {
			if buf == nil {
				buf = make([]byte, n)
			}
			lo := ch.start
			if lo < off {
				lo = off
			}
			hi := chEnd
			if hi > end {
				hi = end
			}
			copy(buf[lo-off:hi-off], ch.data[lo-ch.start:hi-ch.start])
		}
		if ch.obj != nil && chEnd > off && chEnd <= end {
			msgs = append(msgs, MsgMarker{End: chEnd, Obj: ch.obj})
		}
	}
	return buf, msgs
}

func (c *Conn) sendFIN() {
	seg := c.ackSeg(c.finOff)
	seg.FIN = true
	c.transmit(seg)
}

// transmit stamps ports/window and injects the segment.
func (c *Conn) transmit(seg *Segment) {
	seg.SrcPort = c.Local.Port
	seg.DstPort = c.Remote.Port
	seg.Window = c.window
	c.h.send(c.Remote.VN, seg.WireSize(), seg)
}

func (c *Conn) ackNow() {
	c.ackTimer.StopTimer()
	c.ackPending = 0
	c.transmit(c.ackSeg(c.sndNxt))
}

func (c *Conn) scheduleAck() {
	c.ackPending++
	if c.ackPending >= delAckSegs {
		c.ackNow()
		return
	}
	if !c.ackTimer.Armed() {
		c.ackTimer.Reset(delAckTimeout, c.ackFire)
	}
}

// ---- teardown ----

// teardown finalizes the connection: err != nil reports an abnormal close.
func (c *Conn) teardown(err error) {
	if c.removed {
		return
	}
	c.removed = true
	c.state = stateClosed
	c.rtxDirty = false
	c.rtxTimer.StopTimer()
	c.ackTimer.StopTimer()
	c.h.removeConn(c)
	c.fireClose(err)
}

func (c *Conn) fireClose(err error) {
	if c.closed {
		return
	}
	c.closed = true
	if c.handlers.OnClose != nil {
		c.handlers.OnClose(c, err)
	}
}

// maybeFinish removes fully-closed connections (both FINs consumed);
// TIME_WAIT is not modeled.
func (c *Conn) maybeFinish() {
	if c.finOff != 0 && c.finAcked && c.peerFinDone {
		c.teardown(nil)
	}
}

// insertPendingMsg adds a marker (deduplicated by End, kept sorted).
func (c *Conn) insertPendingMsg(m MsgMarker) {
	pending := c.pendingMsgs.live()
	i := sort.Search(len(pending), func(i int) bool { return pending[i].End >= m.End })
	if i < len(pending) && pending[i].End == m.End {
		return
	}
	c.pendingMsgs.insert(i, m)
}

// deliverMsgs fires OnMsg for every pending object now fully received.
func (c *Conn) deliverMsgs() {
	for {
		pending := c.pendingMsgs.live()
		if len(pending) == 0 || pending[0].End > c.rcvNxt {
			return
		}
		obj := pending[0].Obj
		c.pendingMsgs.drop(1)
		if c.handlers.OnMsg != nil {
			c.handlers.OnMsg(c, obj)
		}
	}
}
