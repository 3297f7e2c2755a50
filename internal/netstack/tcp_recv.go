package netstack

import (
	"sort"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// onSegment dispatches an arriving TCP segment to its connection, spawning
// one via a listener for a fresh SYN, or answering with RST.
func (h *Host) onSegment(src pipes.VN, seg *Segment) {
	key := makeConnKey(seg.DstPort, Endpoint{src, seg.SrcPort})
	if c := h.lastConn; c != nil && h.lastKey == key {
		c.handleSegment(seg)
		return
	}
	if c, ok := h.conns[key]; ok {
		h.lastKey, h.lastConn = key, c
		c.handleSegment(seg)
		return
	}
	if seg.SYN && !seg.HasACK {
		if l, ok := h.listeners[seg.DstPort]; ok {
			c := h.newConn(seg.DstPort, Endpoint{src, seg.SrcPort}, Handlers{})
			c.handlers = l.accept(c)
			c.state = stateSynRcvd
			c.rcvNxt = 1 // consume the SYN
			c.sendSYN()  // SYN|ACK
			return
		}
	}
	if !seg.RST {
		// Closed port: refuse.
		rst := h.pool.segs.get()
		*rst = Segment{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: seg.Ack, RST: true, HasACK: true, Ack: seg.Seq + uint64(seg.Len),
		}
		h.send(src, rst.WireSize(), rst)
	}
}

// handleSegment is the per-connection TCP input routine.
func (c *Conn) handleSegment(seg *Segment) {
	if c.removed {
		return
	}
	if seg.RST {
		c.teardown(ErrReset)
		return
	}
	if seg.Window > 0 {
		c.rwnd = seg.Window
	}

	switch c.state {
	case stateSynSent:
		if seg.SYN && seg.HasACK && seg.Ack >= 1 {
			c.sndUna = 1
			c.rcvNxt = 1
			c.establish()
			c.ackNow()
			c.trySend()
		}
		return
	case stateSynRcvd:
		if seg.HasACK && seg.Ack >= 1 {
			c.sndUna = 1
			c.establish()
			// Fall through: the ACK may carry data.
		} else if seg.SYN && !seg.HasACK {
			// Duplicate SYN: re-answer.
			c.sendSYN()
			return
		} else {
			return
		}
	}

	if seg.HasACK {
		c.processAck(seg)
	}
	if c.removed {
		return
	}
	if seg.Len > 0 || seg.FIN {
		c.processData(seg)
	}
}

func (c *Conn) establish() {
	c.state = stateEstablished
	c.retries = 0
	c.Established = c.h.sched.Now()
	if c.sndUna == c.sndNxt {
		c.rtxTimer.StopTimer()
	}
	if c.handlers.OnConnect != nil {
		c.handlers.OnConnect(c)
	}
	// Flush anything queued while the handshake was in flight (e.g. a
	// server that wrote from its accept callback).
	if !c.removed {
		c.trySend()
	}
}

// processAck implements NewReno congestion control.
func (c *Conn) processAck(seg *Segment) {
	switch {
	case seg.Ack > c.sndNxt:
		return // acks data we never sent; ignore
	case seg.Ack > c.sndUna:
		newly := seg.Ack - c.sndUna
		// Acked *data* bytes exclude the FIN's sequence unit.
		dataHi, dataLo := seg.Ack, c.sndUna
		if c.finOff != 0 {
			if dataHi > c.finOff {
				dataHi = c.finOff
			}
			if dataLo > c.finOff {
				dataLo = c.finOff
			}
		}
		c.sndUna = seg.Ack
		c.BytesSent += dataHi - dataLo
		c.popAcked()
		c.retries = 0
		// Forward progress clears any timeout backoff (RFC 6298 §5.7 /
		// Linux tcp_ack): without this, lossy paths ratchet the RTO to
		// its maximum — Karn's algorithm keeps canceling the samples that
		// would bring it back down — and every later loss stalls the
		// connection for maxRTO.
		c.rto = c.computedRTO()
		// RTT sample (Karn's: only for never-retransmitted ranges).
		if c.rttActive && c.sndUna >= c.rttSeq {
			c.rttSample(c.h.sched.Now().Sub(c.rttAt))
			c.rttActive = false
		}
		c.dupAcks = 0
		if c.inRecovery {
			if c.sndUna >= c.recover {
				// Full recovery: deflate.
				c.inRecovery = false
				c.cwnd = c.ssthresh
			} else {
				// Partial ack: the next hole is lost too (NewReno).
				c.retransmitHead()
				c.cwnd -= float64(newly)
				if c.cwnd < MSS {
					c.cwnd = MSS
				}
				c.cwnd += MSS
			}
		} else if c.cwnd < c.ssthresh {
			c.cwnd += MSS // slow start
		} else {
			c.cwnd += MSS * MSS / c.cwnd // congestion avoidance
		}
		if c.sndUna == c.sndNxt {
			c.rtxTimer.StopTimer()
		} else {
			c.rtxDirty = true // armed by the trySend below
		}
		if c.finOff != 0 && !c.finAcked && c.sndUna >= c.finOff+1 {
			c.finAcked = true
			c.maybeFinish()
		}
		if !c.removed {
			c.trySend()
		}
	case seg.Ack == c.sndUna && c.sndNxt > c.sndUna && seg.Len == 0 && !seg.SYN && !seg.FIN:
		c.dupAcks++
		if !c.inRecovery && c.dupAcks == 3 {
			// Fast retransmit + fast recovery.
			flight := float64(c.sndNxt - c.sndUna)
			c.ssthresh = flight / 2
			if c.ssthresh < 2*MSS {
				c.ssthresh = 2 * MSS
			}
			c.recover = c.sndNxt
			c.inRecovery = true
			c.FastRecoveries++
			c.retransmitHead()
			c.cwnd = c.ssthresh + 3*MSS
		} else if c.inRecovery {
			c.cwnd += MSS // window inflation
			c.trySend()
		}
	}
}

// retransmitHead resends the first unacknowledged segment.
func (c *Conn) retransmitHead() {
	if c.sndUna >= c.sndNxt {
		return
	}
	c.rttActive = false // Karn's: no sample across retransmits
	switch {
	case c.sndUna == 0:
		c.sendSYN()
		c.Retransmits++
		return
	case c.finOff != 0 && c.sndUna >= c.finOff:
		c.sendFIN()
		c.Retransmits++
		return
	}
	end := c.sndBufEnd
	if c.finOff != 0 {
		end = c.finOff
	}
	n := int(end - c.sndUna)
	if n > MSS {
		n = MSS
	}
	if n <= 0 {
		return
	}
	c.sendData(c.sndUna, n, true)
	c.armRtx()
}

// popAcked discards fully-acknowledged chunks.
func (c *Conn) popAcked() {
	chunks := c.chunks.live()
	i := 0
	for i < len(chunks) && chunks[i].start+uint64(chunks[i].n) <= c.sndUna {
		i++
	}
	if i > 0 {
		c.chunks.drop(i)
	}
}

// processData handles the payload/FIN portion of a segment.
func (c *Conn) processData(seg *Segment) {
	segEnd := seg.Seq + uint64(seg.Len)
	if seg.FIN {
		c.peerFinOff = segEnd
	}
	switch {
	case segEnd <= c.rcvNxt && !(seg.FIN && c.peerFinOff == c.rcvNxt):
		// Entirely old; re-ack so the peer can advance.
		c.ackNow()
	case seg.Seq <= c.rcvNxt:
		hadGap := len(c.ooo.live()) > 0
		c.deliverInOrder(seg.Seq, seg.Len, seg.Data, seg.Msgs)
		c.drainOOO()
		c.consumeFin()
		if hadGap || c.peerFinDone {
			c.ackNow()
		} else {
			c.scheduleAck()
		}
	default:
		// Gap: buffer and send an immediate duplicate ACK.
		c.insertOOO(oooSeg{seq: seg.Seq, n: seg.Len, data: seg.Data, msgs: seg.Msgs})
		c.ackNow()
	}
}

// deliverInOrder advances rcvNxt over [seq, seq+n), trimming any prefix
// already delivered, and fires OnData/OnMsg.
func (c *Conn) deliverInOrder(seq uint64, n int, data []byte, msgs []MsgMarker) {
	segEnd := seq + uint64(n)
	for _, m := range msgs {
		if m.End > c.rcvNxt {
			c.insertPendingMsg(m)
		}
	}
	if segEnd <= c.rcvNxt {
		return
	}
	skip := c.rcvNxt - seq
	fresh := int(segEnd - c.rcvNxt)
	var payload []byte
	if data != nil {
		payload = data[skip:]
	}
	c.rcvNxt = segEnd
	c.BytesRcvd += uint64(fresh)
	if c.handlers.OnData != nil && fresh > 0 {
		c.handlers.OnData(c, fresh, payload)
	}
	c.deliverMsgs()
}

func (c *Conn) insertOOO(s oooSeg) {
	ooo := c.ooo.live()
	i := sort.Search(len(ooo), func(i int) bool { return ooo[i].seq >= s.seq })
	if i < len(ooo) && ooo[i].seq == s.seq && ooo[i].n >= s.n {
		return // duplicate
	}
	c.ooo.insert(i, s)
}

// drainOOO delivers buffered segments made contiguous by a gap fill.
func (c *Conn) drainOOO() {
	for ooo := c.ooo.live(); len(ooo) > 0; ooo = c.ooo.live() {
		s := ooo[0]
		if s.seq > c.rcvNxt {
			return
		}
		c.ooo.drop(1)
		c.deliverInOrder(s.seq, s.n, s.data, s.msgs)
	}
}

// consumeFin advances over the peer's FIN once the stream is complete.
func (c *Conn) consumeFin() {
	if c.peerFinOff == 0 || c.peerFinDone || c.rcvNxt != c.peerFinOff {
		return
	}
	c.rcvNxt = c.peerFinOff + 1
	c.peerFinDone = true
	c.fireClose(nil)
	c.maybeFinish()
}

// ---- timers ----

func (c *Conn) armRtx() {
	c.rtxTimer.Reset(c.rto, c.rtxFire)
}

// onRtxTimeout is the retransmission timeout: multiplicative backoff,
// collapse to one segment, slow start again.
func (c *Conn) onRtxTimeout() {
	if c.removed || c.sndUna >= c.sndNxt {
		return
	}
	c.retries++
	limit := maxRetries
	if c.state == stateSynSent || c.state == stateSynRcvd {
		limit = maxSynRetries
	}
	if c.retries > limit {
		c.teardown(ErrTimeout)
		return
	}
	c.Timeouts++
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = flight / 2
	if c.ssthresh < 2*MSS {
		c.ssthresh = 2 * MSS
	}
	c.cwnd = MSS
	c.inRecovery = false
	c.dupAcks = 0
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.retransmitHead()
	c.armRtx()
}

// rttSample updates SRTT/RTTVAR/RTO per RFC 6298.
func (c *Conn) rttSample(rtt vtime.Duration) {
	if rtt < 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.computedRTO()
}

// computedRTO derives the un-backed-off RTO from the current estimator
// state (initialRTO before the first sample), clamped to [minRTO, maxRTO].
func (c *Conn) computedRTO() vtime.Duration {
	if c.srtt == 0 {
		return initialRTO
	}
	rto := c.srtt + 4*c.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}
