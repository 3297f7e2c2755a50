package netstack

// Connection bookkeeping: the demux memo in front of Host.conns, the
// per-port count behind ephemeralPort, and the two functions (addConn,
// removeConn) that keep both in step with the map.

import (
	"fmt"
	"testing"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// demuxNet joins any number of hosts on one scheduler by a fixed 1 ms
// delay, logging every segment sent. With noMemo set it forgets the
// receiving host's memo before each delivery — the reference: every segment
// resolved through the map, as before the memo existed. (Forgetting is
// always safe; a test never writes a memo.)
type demuxNet struct {
	sched   *vtime.Scheduler
	hosts   []*Host
	deliver []func(*pipes.Packet)
	noMemo  bool
	sent    []string
}

func newDemuxNet(hosts int) *demuxNet {
	n := &demuxNet{sched: vtime.NewScheduler(), deliver: make([]func(*pipes.Packet), hosts)}
	for i := 0; i < hosts; i++ {
		n.hosts = append(n.hosts, NewHost(pipes.VN(i), n.sched, n, n))
	}
	return n
}

func (n *demuxNet) RegisterVN(vn pipes.VN, fn func(*pipes.Packet)) { n.deliver[vn] = fn }

func (n *demuxNet) Inject(src, dst pipes.VN, size int, payload any) bool {
	n.sent = append(n.sent, fmt.Sprintf("%d vn%d>vn%d %v", n.sched.Now(), src, dst, payload.(*Segment)))
	pkt := &pipes.Packet{Src: src, Dst: dst, Size: size, Payload: payload}
	n.sched.After(vtime.Millisecond, func() {
		if n.noMemo {
			n.hosts[dst].lastConn = nil
		}
		n.deliver[dst](pkt)
		n.checkMemo()
	})
	return true
}

// checkMemo panics if any host's memo names a connection its map does not
// hold under that key — the one state the memo must never be in.
func (n *demuxNet) checkMemo() {
	for _, h := range n.hosts {
		if c := h.lastConn; c != nil && h.conns[h.lastKey] != c {
			panic(fmt.Sprintf("vn%d: demux memo holds %v->%v, the map holds %v", h.vn, c.Local, c.Remote, h.conns[h.lastKey]))
		}
	}
}

// listen makes host i accept on port 80, counting the bytes each spawned
// connection delivers; the returned slice grows as connections arrive.
func (n *demuxNet) listen(t testing.TB, i int) *[]*Conn {
	t.Helper()
	var spawned []*Conn
	if _, err := n.hosts[i].Listen(80, func(c *Conn) Handlers {
		spawned = append(spawned, c)
		return Handlers{}
	}); err != nil {
		t.Fatal(err)
	}
	return &spawned
}

// (a) A 4-tuple torn down and dialled again names a new connection: no
// segment of the second life may reach the first one's Conn, on either host.
func TestDemuxRedialSameTuple(t *testing.T) {
	n := newDemuxNet(2)
	spawned := n.listen(t, 1)
	c1 := n.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c1.WriteCount(3 * MSS)
	n.sched.Run()
	s1 := (*spawned)[0]
	if s1.BytesRcvd != 3*MSS || n.hosts[1].lastConn != s1 || n.hosts[0].lastConn != c1 {
		t.Fatalf("test premise: first life should deliver 3 segments and leave both memos warm (got %d bytes)", s1.BytesRcvd)
	}
	c1.Abort()
	n.sched.Run()
	for i, h := range n.hosts {
		if len(h.conns) != 0 || len(h.portConns) != 0 || h.lastConn != nil {
			t.Fatalf("vn%d after the reset: %d conns, %d counted ports, memo %v", i, len(h.conns), len(h.portConns), h.lastConn)
		}
	}

	n.hosts[0].nextPort = c1.Local.Port
	c2 := n.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	if c2.Local != c1.Local || c2.Remote != c1.Remote {
		t.Fatalf("test premise: the redial should reuse %v->%v, got %v->%v", c1.Local, c1.Remote, c2.Local, c2.Remote)
	}
	c2.WriteCount(5 * MSS)
	n.sched.Run()
	if len(*spawned) != 2 {
		t.Fatalf("listener spawned %d connections, want 2", len(*spawned))
	}
	s2 := (*spawned)[1]
	if c2.state != stateEstablished || c2.BytesSent != 5*MSS || s2.BytesRcvd != 5*MSS {
		t.Fatalf("second life: state %v, %d bytes acked, %d delivered, want 5 segments' worth", c2.state, c2.BytesSent, s2.BytesRcvd)
	}
	if s1.BytesRcvd != 3*MSS || c1.BytesSent != 3*MSS || s1.state != stateClosed || c1.state != stateClosed {
		t.Fatalf("the dead connections were reached: server %d bytes (state %v), client %d acked (state %v)", s1.BytesRcvd, s1.state, c1.BytesSent, c1.state)
	}
}

// (b) Connections sharing a host, their segments interleaved so the memo
// misses over and over, must put exactly the segments on the wire that a
// host without the memo puts there.
func TestDemuxMemoThrashMatchesMapOnly(t *testing.T) {
	run := func(noMemo bool) (*demuxNet, []*Conn) {
		n := newDemuxNet(3)
		n.noMemo = noMemo
		spawned := n.listen(t, 1)
		// Two connections from host 0 and one from host 2, all into host 1,
		// each a different length so they also finish at different times.
		for i, src := range []int{0, 0, 2} {
			c := n.hosts[src].Dial(Endpoint{1, 80}, Handlers{})
			c.WriteCount((30 + 7*i) * MSS)
			c.Close()
		}
		n.sched.Run()
		return n, *spawned
	}
	memo, conns := run(false)
	ref, refConns := run(true)
	if len(conns) != 3 || len(refConns) != 3 {
		t.Fatalf("spawned %d / %d connections, want 3", len(conns), len(refConns))
	}
	for i, c := range conns {
		if want := uint64(30+7*i) * MSS; c.BytesRcvd != want || refConns[i].BytesRcvd != want {
			t.Fatalf("connection %d delivered %d bytes (reference %d), want %d", i, c.BytesRcvd, refConns[i].BytesRcvd, want)
		}
	}
	if len(memo.sent) != len(ref.sent) {
		t.Fatalf("%d segments sent, the map-only reference sent %d", len(memo.sent), len(ref.sent))
	}
	// Premise: host 1's arrivals really alternate between connections.
	switches, prev := 0, ""
	for i, s := range memo.sent {
		if s != ref.sent[i] {
			t.Fatalf("segment %d differs:\n memo %s\n map  %s", i, s, ref.sent[i])
		}
		var at int64
		var src, dst int
		var from string
		if _, err := fmt.Sscanf(s, "%d vn%d>vn%d %s", &at, &src, &dst, &from); err != nil {
			t.Fatalf("log line %q: %v", s, err)
		}
		if dst == 1 {
			if key := fmt.Sprint(src, from); key != prev {
				switches, prev = switches+1, key
			}
		}
	}
	if switches < 20 {
		t.Fatalf("test premise: host 1's input should alternate between connections (%d switches in %d segments)", switches, len(memo.sent))
	}
}

// (c) With the memo warm on a live connection, a segment for a port nobody
// holds still draws the RST, and so does one for a connection torn down.
func TestDemuxClosedPortDrawsRST(t *testing.T) {
	n := newDemuxNet(2)
	spawned := n.listen(t, 1)
	live := n.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	live.WriteCount(2 * MSS)
	n.sched.Run()
	if n.hosts[1].lastConn != (*spawned)[0] {
		t.Fatal("test premise: the memo should be warm")
	}
	var errs []error
	record := Handlers{OnClose: func(_ *Conn, err error) { errs = append(errs, err) }}
	n.hosts[0].Dial(Endpoint{1, 81}, record)
	n.sched.Run()
	if len(errs) != 1 || errs[0] != ErrReset {
		t.Fatalf("dial to a closed port closed with %v, want one ErrReset", errs)
	}
	// Tear the server side down silently; the client's next data segment
	// must be refused, not handed to the dead Conn by the memo.
	live.handlers = record
	(*spawned)[0].teardown(nil)
	live.WriteCount(MSS)
	n.sched.Run()
	if len(errs) != 2 || errs[1] != ErrReset {
		t.Fatalf("data for a torn-down connection closed with %v, want a second ErrReset", errs)
	}
}

// (d) A connection a listener spawns is in the map from its SYN on: the
// handshake's ACK and every later segment find it, and no second connection
// is spawned for the tuple.
func TestDemuxFindsListenerSpawnedConn(t *testing.T) {
	n := newDemuxNet(2)
	spawned := n.listen(t, 1)
	c := n.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	c.WriteCount(4 * MSS)
	n.sched.Run()
	if len(*spawned) != 1 {
		t.Fatalf("listener spawned %d connections for one dial", len(*spawned))
	}
	s := (*spawned)[0]
	if s.state != stateEstablished || s.BytesRcvd != 4*MSS || n.hosts[1].lastConn != s {
		t.Fatalf("spawned connection: state %v, %d bytes, memo %v", s.state, s.BytesRcvd, n.hosts[1].lastConn)
	}
	if n.hosts[1].portConns[80] != 1 {
		t.Fatalf("port 80 counts %d connections, want 1", n.hosts[1].portConns[80])
	}
}

// refEphemeralPort is the allocator ephemeralPort replaced, kept as the
// reference: the same candidate walk, with "does a connection hold this
// port" answered by ranging over the whole map. It does not advance nextPort.
func refEphemeralPort(h *Host) uint16 {
	next := h.nextPort
	for i := 0; i < 65536; i++ {
		p := next
		next++
		if next == 0 {
			next = 32768
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
		inUse := false
		for k := range h.conns {
			if uint16(k>>48) == p {
				inUse = true
			}
		}
		if !inUse {
			return p
		}
	}
	panic("out of ports")
}

// Local ports are in every segment and every trace, so the per-port count
// must hand out the ports the map scan handed out, in its order — across
// closes, a listener and a UDP socket inside the range, connections spawned
// on a listener's port, and the wrap from 65535 back to 32768.
func TestEphemeralPortsMatchMapScan(t *testing.T) {
	n := newDemuxNet(2)
	n.listen(t, 1)
	h := n.hosts[0]
	var open []*Conn
	dial := func() {
		t.Helper()
		want := refEphemeralPort(h)
		c := h.Dial(Endpoint{1, 80}, Handlers{})
		if c.Local.Port != want {
			t.Fatalf("dial %d got port %d, the map scan hands out %d", len(open), c.Local.Port, want)
		}
		open = append(open, c)
	}
	if _, err := h.Listen(32770, func(*Conn) Handlers { return Handlers{} }); err != nil {
		t.Fatal(err)
	}
	if _, err := h.OpenUDP(32772, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		dial()
	}
	n.sched.Run()
	// Host 1 dials host 0's listener: host 0 now holds a connection on a
	// port that is not ephemeral, and keeps it after the listener closes.
	n.hosts[1].Dial(Endpoint{0, 32770}, Handlers{})
	n.sched.Run()
	h.listeners[32770].Close()
	for _, i := range []int{1, 4, 5} {
		open[i].Abort()
	}
	n.sched.Run()
	// Wrap: the walk restarts at 32768 and must skip what is still held
	// (32768, 32771, …), the UDP socket, and the spawned connection on 32770,
	// and reuse what was closed (32769, 32774, 32775).
	h.nextPort = 65534
	for i := 0; i < 12; i++ {
		dial()
	}
	seen := map[uint16]bool{}
	for _, c := range open {
		if !c.removed {
			if seen[c.Local.Port] || c.Local.Port == 32770 || c.Local.Port == 32772 {
				t.Fatalf("port %d handed out while held", c.Local.Port)
			}
			seen[c.Local.Port] = true
		}
	}
	if !seen[32769] || !seen[65535] {
		t.Fatalf("test premise: the script should wrap and reuse a closed port (ports %v)", seen)
	}
}

// Opening many connections from one host is linear: each Dial asks the
// per-port count, not every open connection.
func TestDialManyConnectionsFromOneHost(t *testing.T) {
	const conns = 2000
	n := newDemuxNet(2)
	spawned := n.listen(t, 1)
	var dialled []*Conn
	for i := 0; i < conns; i++ {
		c := n.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
		if want := uint16(32768 + i); c.Local.Port != want {
			t.Fatalf("dial %d got port %d, want %d", i, c.Local.Port, want)
		}
		c.WriteCount(MSS)
		dialled = append(dialled, c)
	}
	n.sched.Run()
	if len(*spawned) != conns || len(n.hosts[0].conns) != conns || n.hosts[1].portConns[80] != conns {
		t.Fatalf("%d spawned, %d held by the client, %d counted on port 80, want %d each",
			len(*spawned), len(n.hosts[0].conns), n.hosts[1].portConns[80], conns)
	}
	for i, c := range dialled {
		if c.state != stateEstablished || c.BytesSent != MSS {
			t.Fatalf("connection %d: state %v, %d bytes acked", i, c.state, c.BytesSent)
		}
	}
}

// BenchmarkDemuxSegment prices Host.onSegment's lookup: a pure ACK that
// acknowledges nothing new and carries nothing, so the input routine behind
// the lookup does no work. "same" is a bulk flow's case (every segment for
// the connection the last one went to), "alternating" the worst case for
// the memo (two connections taking turns: a compare, then the map).
func BenchmarkDemuxSegment(b *testing.B) {
	n := newDemuxNet(2)
	spawned := n.listen(b, 1)
	for i := 0; i < 2; i++ {
		n.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	}
	n.sched.Run()
	h := n.hosts[1]
	var acks [2]Segment
	for i, s := range *spawned {
		acks[i] = Segment{SrcPort: s.Remote.Port, DstPort: 80, Seq: s.rcvNxt, HasACK: true, Ack: s.sndUna, Window: DefaultWindow}
	}
	for _, bc := range []struct {
		name string
		step int
	}{{"same", 0}, {"alternating", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.onSegment(0, &acks[i*bc.step&1])
			}
		})
	}
	if len(n.sent) != 6 {
		b.Fatalf("the benchmark's ACKs drew replies: %d segments sent, the two handshakes account for 6", len(n.sent))
	}
}
