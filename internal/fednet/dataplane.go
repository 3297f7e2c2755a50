package fednet

// The data plane: cross-core tunnel messages travel worker-to-worker over
// UDP datagrams (the paper's IP-in-UDP core tunnels) or a TCP mesh, never
// through the coordinator. Reliability is not required for correctness of
// ordering — the barrier applies messages in canonical (fire, sender, seq)
// order regardless of arrival order — but every counted message must
// eventually arrive, so the UDP plane is for the loss-free links of a
// cluster interconnect (or loopback) and TCP is the fallback everywhere
// else.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"modelnet/internal/fednet/wire"
	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// collector accumulates decoded inbound tunnel messages per sender
// channel. The control loop blocks in wait until the barrier-announced
// prefix of every channel has arrived; readers feed it from socket
// goroutines. Selection is by each message's dense channel sequence
// number, so messages a peer sends for the *next* barrier round — already
// in flight while this worker still awaits the current one — sit in the
// buffer untouched instead of corrupting the round, and a duplicated
// datagram is detected rather than applied twice.
type collector struct {
	mu       sync.Mutex
	cond     *sync.Cond
	channels []channelBuf
	// closed[j] is sender j's latest flush close marker (the cumulative
	// channel count its last completed flush reached). Purely diagnostic:
	// when a wait times out, a channel whose close marker covers the
	// expectation but whose contiguous prefix does not has lost a datagram
	// in transit, and the error can say so.
	closed []uint64
	// lenient[j] marks a channel that went through a recovery reset:
	// duplicates of already-buffered or already-delivered sequences are
	// expected there (the respawned peer's replay and any of the dead
	// process's still-in-flight datagrams carry byte-identical messages,
	// by the determinism contract) and are dropped instead of failing the
	// run. Ordinary channels keep the duplicate tripwire.
	lenient []bool
	err     error
}

// channelBuf is one sender→me channel. Sequences are dense and 1-based,
// so readiness is a counter comparison: contig is the highest sequence
// with every message delivered+1..contig buffered, maintained in O(1)
// amortized as messages arrive (possibly out of order).
type channelBuf struct {
	buffered  map[uint64]parcore.Msg
	delivered uint64 // prefix already handed to the barrier
	contig    uint64 // prefix currently available
}

func newCollector(k int) *collector {
	c := &collector{channels: make([]channelBuf, k), closed: make([]uint64, k), lenient: make([]bool, k)}
	for j := range c.channels {
		c.channels[j].buffered = map[uint64]parcore.Msg{}
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) add(m parcore.Msg, tseq uint64) {
	c.mu.Lock()
	switch {
	case m.Sender < 0 || m.Sender >= len(c.channels):
		if c.err == nil {
			c.err = fmt.Errorf("fednet: data plane: message from out-of-range shard %d", m.Sender)
		}
	case tseq == 0:
		if c.err == nil {
			c.err = fmt.Errorf("fednet: data plane: zero channel sequence from shard %d", m.Sender)
		}
	default:
		ch := &c.channels[m.Sender]
		if _, dup := ch.buffered[tseq]; dup || tseq <= ch.delivered {
			if !c.lenient[m.Sender] && c.err == nil {
				c.err = fmt.Errorf("fednet: data plane: duplicate message %d from shard %d", tseq, m.Sender)
			}
			break
		}
		ch.buffered[tseq] = m
		for {
			if _, ok := ch.buffered[ch.contig+1]; !ok {
				break
			}
			ch.contig++
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// noteClose records sender j's flush close marker (monotone cumulative).
func (c *collector) noteClose(sender int, close uint64) {
	c.mu.Lock()
	if sender >= 0 && sender < len(c.closed) && close > c.closed[sender] {
		c.closed[sender] = close
	}
	c.mu.Unlock()
}

// reset drops sender's buffered-but-undelivered messages (in-flight frames
// from rounds a recovery rewound) and marks the channel lenient: the
// respawned peer will resend its whole log, re-covering the dropped suffix
// and overlapping the delivered prefix. delivered/contig stay at the
// consumed prefix — the coordinator's retried expectations resume there.
func (c *collector) reset(sender int) {
	c.mu.Lock()
	if sender >= 0 && sender < len(c.channels) {
		ch := &c.channels[sender]
		for tseq := range ch.buffered {
			delete(ch.buffered, tseq)
		}
		ch.contig = ch.delivered
		c.lenient[sender] = true
	}
	c.mu.Unlock()
}

// deliveredVec snapshots the per-channel delivered prefixes (the inbox
// cursor a checkpoint records).
func (c *collector) deliveredVec() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := make([]uint64, len(c.channels))
	for j := range c.channels {
		v[j] = c.channels[j].delivered
	}
	return v
}

func (c *collector) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// readyLocked reports whether, for every sender j, the full channel prefix
// (delivered[j], expect[j]] is buffered.
func (c *collector) readyLocked(expect []uint64) bool {
	for j, want := range expect {
		if c.channels[j].contig < want {
			return false
		}
	}
	return true
}

// wait blocks until the barrier's channel prefixes have all arrived, then
// extracts exactly those messages (later in-flight ones stay buffered).
// The timeout guards against a lost datagram or dead peer hanging the
// federation forever; a timer that fires in the instant the wait succeeds
// must not poison later rounds.
func (c *collector) wait(expect []uint64, timeout time.Duration) ([]parcore.Msg, error) {
	if len(expect) != len(c.channels) {
		return nil, fmt.Errorf("fednet: barrier names %d channels, data plane has %d", len(expect), len(c.channels))
	}
	done := false
	deadline := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		if !done && c.err == nil {
			// Name every channel still short of its expectation, so an
			// unrecovered stall is diagnosable: the shard IDs point at the
			// dead (or slow) peers, and the close markers distinguish a
			// sender that never flushed from one whose datagram was lost
			// in transit.
			missing := ""
			for j, want := range expect {
				if ch := &c.channels[j]; ch.contig < want {
					missing += fmt.Sprintf("; shard %d (have %d of %d", j, ch.contig, want)
					if c.closed[j] >= want {
						missing += fmt.Sprintf("; its flush closed at %d — datagram lost in transit, use the tcp data plane", c.closed[j])
					}
					missing += ")"
				}
			}
			c.err = fmt.Errorf("fednet: data plane: timed out after %v awaiting peer messages%s", timeout, missing)
		}
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer deadline.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && !c.readyLocked(expect) {
		c.cond.Wait()
	}
	done = true
	if c.err != nil {
		return nil, c.err
	}
	var msgs []parcore.Msg
	for j, want := range expect {
		ch := &c.channels[j]
		if want <= ch.delivered {
			continue // already handed out (coordinator counters are monotonic)
		}
		for t := ch.delivered + 1; t <= want; t++ {
			msgs = append(msgs, ch.buffered[t])
			delete(ch.buffered, t)
		}
		ch.delivered = want
	}
	return msgs, nil
}

// dataPlane sends encoded tunnel messages to peers and feeds received ones
// into the collector.
type dataPlane struct {
	plane string
	shard int

	// maxDatagram bounds one UDP data-plane frame (header included);
	// batches are chunked under it, and a single message that cannot fit
	// fails the run instead of being silently truncated by the kernel.
	maxDatagram int

	udp      *net.UDPConn
	udpPeers []*net.UDPAddr

	tcp []net.Conn // per peer shard; nil at own index

	col    *collector
	closed chan struct{}
	wg     sync.WaitGroup

	// Recoverable mode: peers may die and be respawned at new addresses
	// mid-run. The plane then (a) survives peer connection errors instead of
	// poisoning the collector, (b) keeps accepting replacement TCP
	// connections for the run's lifetime, and (c) can rewire a peer slot to
	// a respawned worker's endpoints. endMu guards the endpoint tables
	// (udpPeers entries, tcp entries) shared between the control goroutine
	// and the replacement-accept goroutine.
	recoverable bool
	timeout     time.Duration
	tcpLn       net.Listener
	endMu       sync.Mutex
	// wmu serializes frame writes: recovery resends run on reader
	// goroutines, concurrently with the control goroutine's own sends.
	wmu sync.Mutex
	// onRecover handles a peer's data-plane recovery request (TResend):
	// update the peer's endpoints and retransmit sendLog. Runs on a reader
	// goroutine.
	onRecover func(peer int, src *net.UDPAddr) error
	sendLog   *workerRecovery

	// Wire-cost counters, maintained by the sending (control) goroutine.
	frames uint64 // data-plane frames written (= syscalls on the UDP plane)
	bytes  uint64 // bytes handed to the sockets, framing included
}

// liveMsg reconstructs a parcore message from one decoded batch element.
func liveMsg(sender int, d wire.DataMsg) (parcore.Msg, error) {
	pkt, err := d.Pkt.Packet()
	if err != nil {
		return parcore.Msg{}, err
	}
	return parcore.Msg{
		Pkt:    pkt,
		Pid:    pipes.ID(d.Pid),
		At:     vtime.Time(d.At),
		Lag:    vtime.Duration(d.Lag),
		Fire:   vtime.Time(d.Fire),
		Sender: sender,
		Seq:    d.Seq,
	}, nil
}

// wireMsg converts an outbound parcore message to its wire form (the batch
// element; Sender and the channel sequence live in the enclosing frame).
func wireMsg(m parcore.Msg) (wire.DataMsg, error) {
	pw, err := wire.EncodePacket(m.Pkt)
	if err != nil {
		return wire.DataMsg{}, err
	}
	kind := wire.KindTunnel
	if m.Pid < 0 {
		kind = wire.KindDelivery
	}
	return wire.DataMsg{
		Seq:  m.Seq,
		Kind: kind,
		Pid:  int32(m.Pid),
		At:   int64(m.At),
		Lag:  int64(m.Lag),
		Fire: int64(m.Fire),
		Pkt:  pw,
	}, nil
}

// openDataPlane wires this worker to its peers. UDP: everyone already has a
// bound socket; peers are just addresses. TCP: workers form a full mesh —
// shard i dials every j < i (identifying itself with a hello frame) and
// accepts a connection from every j > i.
func openDataPlane(plane string, shard int, addrs []string, udp *net.UDPConn, tcpLn net.Listener, col *collector, timeout time.Duration, maxDatagram int, recoverable, resume bool) (*dataPlane, error) {
	k := len(addrs)
	if maxDatagram <= 0 {
		maxDatagram = DefaultMaxDatagram
	}
	dp := &dataPlane{
		plane: plane, shard: shard, maxDatagram: maxDatagram, col: col,
		closed: make(chan struct{}), recoverable: recoverable, timeout: timeout,
	}
	switch plane {
	case DataUDP:
		dp.udp = udp
		dp.udpPeers = make([]*net.UDPAddr, k)
		for j, a := range addrs {
			if j == shard {
				continue
			}
			ua, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				return nil, fmt.Errorf("fednet: peer %d udp addr %q: %w", j, a, err)
			}
			dp.udpPeers[j] = ua
		}
		// A window's handoffs burst at the barrier; buffer enough that the
		// kernel never sheds a counted datagram before the reader drains it.
		_ = udp.SetReadBuffer(8 << 20)
		_ = udp.SetWriteBuffer(8 << 20)
	case DataTCP:
		dp.tcp = make([]net.Conn, k)
		if resume {
			// A respawned worker cannot rely on the mesh's dial direction —
			// the live peers formed their mesh long ago and will not redial.
			// It dials everyone; each peer's replacement-accept loop swaps
			// the new connection into this shard's slot.
			for j := 0; j < k; j++ {
				if j == shard {
					continue
				}
				conn, err := net.DialTimeout("tcp", addrs[j], timeout)
				if err != nil {
					return nil, fmt.Errorf("fednet: redial peer %d at %s: %w", j, addrs[j], err)
				}
				var e wire.Enc
				e.U16(uint16(shard))
				if err := wire.WriteFrame(conn, wire.THello, e.Bytes()); err != nil {
					return nil, err
				}
				if tc, ok := conn.(*net.TCPConn); ok {
					_ = tc.SetNoDelay(true)
				}
				dp.tcp[j] = conn
			}
			dp.tcpLn = tcpLn
			break
		}
		errc := make(chan error, 2)
		go func() { // accept from higher shards
			for j := shard + 1; j < k; j++ {
				conn, err := tcpLn.Accept()
				if err != nil {
					errc <- err
					return
				}
				typ, body, err := wire.ReadFrame(conn)
				if err != nil || typ != wire.THello || len(body) < 2 {
					errc <- fmt.Errorf("fednet: bad data-plane hello: %v", err)
					return
				}
				peer := int(wire.NewDec(body).U16())
				if peer <= shard || peer >= k || dp.tcp[peer] != nil {
					errc <- fmt.Errorf("fednet: unexpected data-plane hello from shard %d", peer)
					return
				}
				dp.tcp[peer] = conn
			}
			errc <- nil
		}()
		go func() { // dial lower shards
			for j := 0; j < shard; j++ {
				conn, err := net.DialTimeout("tcp", addrs[j], timeout)
				if err != nil {
					errc <- fmt.Errorf("fednet: dial peer %d at %s: %w", j, addrs[j], err)
					return
				}
				var e wire.Enc
				e.U16(uint16(shard))
				if err := wire.WriteFrame(conn, wire.THello, e.Bytes()); err != nil {
					errc <- err
					return
				}
				dp.tcp[j] = conn
			}
			errc <- nil
		}()
		for i := 0; i < 2; i++ {
			if err := <-errc; err != nil {
				return nil, err
			}
		}
		for j, conn := range dp.tcp {
			if j == shard || conn == nil {
				continue
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true)
			}
		}
		if recoverable {
			// Respawned higher shards re-dial this worker (the mesh keeps
			// its dial direction: i dials every j < i), so the listener
			// stays open and replacement connections are accepted for the
			// run's lifetime.
			dp.tcpLn = tcpLn
		}
	default:
		return nil, fmt.Errorf("fednet: unknown data plane %q", plane)
	}
	return dp, nil
}

// start launches the plane's reader goroutines (and the replacement-accept
// loop, when the listener stayed open). Split from openDataPlane so the
// caller can finish wiring — the recovery hook in particular — before any
// inbound frame can race it.
func (dp *dataPlane) start() {
	switch dp.plane {
	case DataUDP:
		dp.wg.Add(1)
		go dp.readUDP()
	case DataTCP:
		for j, conn := range dp.tcp {
			if j == dp.shard || conn == nil {
				continue
			}
			dp.wg.Add(1)
			go dp.readTCP(conn)
		}
		if dp.tcpLn != nil {
			dp.wg.Add(1)
			go dp.acceptReplacements()
		}
	}
}

// deliverFrame feeds one received data-plane frame into the collector. src
// is the datagram's source address on the UDP plane (nil on TCP): a
// recovery request's source IS the respawned peer's new endpoint.
func (dp *dataPlane) deliverFrame(typ uint8, body []byte, src *net.UDPAddr) error {
	switch typ {
	case wire.TDataBatch:
		b, err := wire.DecodeDataBatch(body)
		if err != nil {
			return err
		}
		for i, d := range b.Msgs {
			m, err := liveMsg(int(b.Sender), d)
			if err != nil {
				return err
			}
			dp.col.add(m, b.TSeq0+uint64(i))
		}
		if b.Close != 0 {
			dp.col.noteClose(int(b.Sender), b.Close)
		}
		return nil
	case wire.TResend:
		// A respawned peer announces itself and asks for this worker's send
		// log. Handled here — on the reader goroutine — because the control
		// loop may be blocked in a barrier wait for the very messages the
		// recovery reconstructs.
		m, err := wire.DecodeResend(body)
		if err != nil {
			return err
		}
		if dp.onRecover == nil {
			return fmt.Errorf("fednet: recovery request from shard %d on a non-recoverable data plane", m.Peer)
		}
		return dp.onRecover(int(m.Peer), src)
	default:
		return fmt.Errorf("fednet: unexpected data-plane frame type %d", typ)
	}
}

func (dp *dataPlane) readUDP() {
	defer dp.wg.Done()
	n := 1 << 16
	if dp.maxDatagram > n {
		n = dp.maxDatagram
	}
	buf := make([]byte, n)
	for {
		n, src, err := dp.udp.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-dp.closed:
			default:
				dp.col.fail(fmt.Errorf("fednet: udp read: %w", err))
			}
			return
		}
		typ, body, err := wire.ParseFrame(buf[:n])
		if err != nil {
			dp.col.fail(fmt.Errorf("fednet: bad data datagram (%d bytes): %v", n, err))
			return
		}
		if err := dp.deliverFrame(typ, body, src); err != nil {
			dp.col.fail(err)
			return
		}
	}
}

func (dp *dataPlane) readTCP(conn net.Conn) {
	defer dp.wg.Done()
	for {
		typ, body, err := wire.ReadFrame(conn)
		if err != nil {
			select {
			case <-dp.closed:
			default:
				// In recoverable mode a broken peer connection is expected
				// (the peer died, or this conn was replaced by a rewire);
				// liveness is the coordinator's job, so the reader just
				// drains out instead of poisoning the collector.
				if !dp.recoverable {
					dp.col.fail(fmt.Errorf("fednet: tcp data read: %w", err))
				}
			}
			return
		}
		if err := dp.deliverFrame(typ, body, nil); err != nil {
			dp.col.fail(err)
			return
		}
	}
}

// acceptReplacements accepts TCP connections from respawned higher shards
// for the run's lifetime, swapping each into the peer's slot and starting a
// fresh reader. The old connection's reader drains out on its own (its read
// error is non-fatal in recoverable mode).
func (dp *dataPlane) acceptReplacements() {
	defer dp.wg.Done()
	for {
		conn, err := dp.tcpLn.Accept()
		if err != nil {
			return // listener closed at teardown
		}
		_ = conn.SetReadDeadline(time.Now().Add(dp.timeout))
		typ, body, err := wire.ReadFrame(conn)
		_ = conn.SetReadDeadline(time.Time{})
		if err != nil || typ != wire.THello || len(body) < 2 {
			conn.Close()
			continue
		}
		// Any peer but self: a respawned worker redials every peer
		// regardless of the initial mesh's dial direction.
		peer := int(wire.NewDec(body).U16())
		if peer == dp.shard || peer < 0 || peer >= len(dp.tcp) {
			conn.Close()
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		dp.endMu.Lock()
		old := dp.tcp[peer]
		dp.tcp[peer] = conn
		dp.endMu.Unlock()
		if old != nil {
			old.Close()
		}
		dp.wg.Add(1)
		go dp.readTCP(conn)
	}
}

// DefaultMaxDatagram is the default bound on one UDP data-plane frame:
// comfortably under the 65507-byte UDP payload ceiling, leaving room for
// the stack's own headers.
const DefaultMaxDatagram = 60 << 10

// maxTCPChunk bounds one batched frame on the TCP plane. The stream has no
// datagram limit, but bounding the chunk bounds both ends' buffering.
const maxTCPChunk = 1 << 20

// write puts one complete frame on the wire to peer j — a single syscall on
// the UDP plane — and maintains the frame/byte counters.
func (dp *dataPlane) write(j int, frame []byte) error {
	// Frame writes serialize: recovery resends run on reader goroutines,
	// concurrently with the control goroutine's sends.
	dp.wmu.Lock()
	defer dp.wmu.Unlock()
	dp.frames++
	dp.bytes += uint64(len(frame))
	if dp.plane == DataUDP {
		dp.endMu.Lock()
		peer := dp.udpPeers[j]
		dp.endMu.Unlock()
		// Barrier flushes burst; some kernels (macOS loopback notably)
		// answer a burst with transient ENOBUFS rather than blocking.
		// Back off briefly instead of failing the federation.
		for attempt := 0; ; attempt++ {
			_, err := dp.udp.WriteToUDP(frame, peer)
			if err == nil || !errors.Is(err, syscall.ENOBUFS) || attempt >= 50 {
				return dp.sendErr(err)
			}
			time.Sleep(time.Duration(attempt+1) * 100 * time.Microsecond)
		}
	}
	dp.endMu.Lock()
	conn := dp.tcp[j]
	dp.endMu.Unlock()
	_, err := conn.Write(frame)
	return dp.sendErr(err)
}

// sendErr maps a peer write error: fatal normally, swallowed in recoverable
// mode — the peer is presumed dead and the coordinator's liveness machinery
// (control-connection EOF, barrier timeouts) owns the diagnosis; messages
// the dead peer missed are replayed from the send log after its respawn.
func (dp *dataPlane) sendErr(err error) error {
	if err != nil && dp.recoverable {
		return nil
	}
	return err
}

// batchOverhead is the fixed cost of one batched frame: the frame header
// plus the batch header (sender u16, tseq0 u64, close u64, count u32).
const batchOverhead = 6 + 2 + 8 + 8 + 4

// chunkBatch partitions pre-encoded batch elements into [start, end)
// ranges such that each range's frame fits under limit. With strict set
// (the UDP plane, where limit is a real datagram bound), a single element
// that cannot fit even alone is an error — the kernel would otherwise
// truncate or drop the datagram silently. Without strict (the TCP plane,
// where limit only bounds buffering), an oversized element simply gets a
// frame of its own.
func chunkBatch(elems [][]byte, limit int, strict bool) ([][2]int, error) {
	var ranges [][2]int
	start, size := 0, batchOverhead
	for i, el := range elems {
		if strict && batchOverhead+len(el) > limit {
			return nil, fmt.Errorf("fednet: %d-byte tunnel message exceeds the UDP data plane datagram bound (%d); raise MaxDatagram or use the tcp data plane", batchOverhead+len(el), limit)
		}
		if size+len(el) > limit && i > start {
			ranges = append(ranges, [2]int{start, i})
			start, size = i, batchOverhead
		}
		size += len(el)
	}
	if start < len(elems) {
		ranges = append(ranges, [2]int{start, len(elems)})
	}
	return ranges, nil
}

// sendBatch transmits a round's whole batch for peer shard j, elements
// carrying dense channel sequences tseq0, tseq0+1, ... — one frame (and on
// UDP one syscall) per chunk, not per message. A recoverable plane keeps
// the encoded elements: the send log is what a peer's respawn replays.
// Append before sending — a concurrent recovery resend then either includes
// the element or the element's own send goes to the already-updated
// endpoint, so the respawned peer misses nothing (duplicates are dropped by
// its lenient collector).
func (dp *dataPlane) sendBatch(j int, msgs []parcore.Msg, tseq0 uint64) error {
	elems := make([][]byte, len(msgs))
	for i, m := range msgs {
		d, err := wireMsg(m)
		if err != nil {
			return err
		}
		elems[i] = d.Encode()
	}
	if dp.sendLog != nil {
		dp.sendLog.append(j, elems)
	}
	return dp.sendElems(j, elems, tseq0, tseq0+uint64(len(elems))-1)
}

// sendElems transmits pre-encoded batch elements carrying dense channel
// sequences tseq0, tseq0+1, ...; the final chunk carries closeMark as the
// flush close marker (the cumulative channel count this flush reached).
func (dp *dataPlane) sendElems(j int, elems [][]byte, tseq0, closeMark uint64) error {
	limit, strict := maxTCPChunk, false
	if dp.plane == DataUDP {
		limit, strict = dp.maxDatagram, true
	}
	ranges, err := chunkBatch(elems, limit, strict)
	if err != nil {
		return err
	}
	for ri, r := range ranges {
		close := uint64(0)
		if ri == len(ranges)-1 {
			close = closeMark
		}
		body := wire.EncodeDataBatch(uint16(dp.shard), tseq0+uint64(r[0]), close, elems[r[0]:r[1]])
		if err := dp.write(j, wire.AppendFrame(nil, wire.TDataBatch, body)); err != nil {
			return err
		}
	}
	return nil
}

// resend retransmits this worker's entire send log for the this-shard→j
// channel from sequence 1 — the respawned peer's collector is lenient, so
// the prefix it already consumed is dropped on arrival and the lost suffix
// fills in.
func (dp *dataPlane) resend(j int, log [][]byte) error {
	if len(log) == 0 {
		return nil
	}
	return dp.sendElems(j, log, 1, uint64(len(log)))
}

// counters snapshots the wire-cost counters under the write lock.
func (dp *dataPlane) counters() (frames, bytes uint64) {
	dp.wmu.Lock()
	defer dp.wmu.Unlock()
	return dp.frames, dp.bytes
}

// recoverBroadcast announces this respawned worker to every peer: one
// TResend frame per peer, asking for its full send log. On the UDP plane
// the frame's source address doubles as the endpoint announcement; on TCP
// the redial already swapped the connections.
func (dp *dataPlane) recoverBroadcast() error {
	body := wire.Resend{Peer: uint32(dp.shard)}.Encode()
	for j := range dp.col.channels {
		if j == dp.shard {
			continue
		}
		if err := dp.write(j, wire.AppendFrame(nil, wire.TResend, body)); err != nil {
			return fmt.Errorf("fednet: recovery announce to shard %d: %w", j, err)
		}
	}
	return nil
}

// close tears the plane down; reader goroutines drain out.
func (dp *dataPlane) close() {
	close(dp.closed)
	if dp.tcpLn != nil {
		dp.tcpLn.Close()
	}
	if dp.udp != nil {
		dp.udp.Close()
	}
	for _, c := range dp.tcp {
		if c != nil {
			c.Close()
		}
	}
	dp.wg.Wait()
}
