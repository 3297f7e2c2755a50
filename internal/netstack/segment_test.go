package netstack

// Segment ownership and retransmit-timer order.
//
// A *Segment is taken off the sending host's loop-local free list and put
// back by the receiving host when its input routine returns; the retransmit
// timer is armed once per input instead of once per transmitted segment.
// Neither may be visible to the simulation: these tests pin the allocation
// count, the free list's bound, that nothing a connection keeps aliases a
// recycled segment, and that the single arm leaves every event exactly where
// per-segment arming left it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// newLineNet is two hosts joined by one emulated pipe each way: the Fig. 4
// shape, one hop per packet. The queue is deep enough that a 64 KB window
// never overflows it, so no segment is lost to a pipe drop.
func newLineNet(tb testing.TB) *testNet {
	return newPairNet(tb, topology.Pairs(1, 1, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 10e-3, QueuePkts: 100}))
}

// newPairNet is hosts 0 and 1 on g, emulated under the ideal profile.
func newPairNet(tb testing.TB, g *topology.Graph) *testNet {
	tb.Helper()
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 42)
	if err != nil {
		tb.Fatal(err)
	}
	tn := &testNet{sched: sched, emu: emu}
	for i := 0; i < 2; i++ {
		tn.hosts = append(tn.hosts, NewHost(pipes.VN(i), sched, emu, emu))
	}
	return tn
}

// startBulk opens an endless synthetic-byte flow from host 0 to host 1 and
// runs it past slow start.
func startBulk(tb testing.TB, tn *testNet) {
	tb.Helper()
	if _, err := tn.hosts[1].Listen(80, func(*Conn) Handlers { return Handlers{} }); err != nil {
		tb.Fatal(err)
	}
	tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{}).WriteCount(1 << 42)
	tn.sched.RunFor(2 * vtime.Second)
}

// A bulk transfer in steady state allocates nothing: data segments and ACKs
// circulate through the loop's free list (the parent allocated one Segment
// per packet).
func TestSegmentAllocs(t *testing.T) {
	tn := newLineNet(t)
	startBulk(t, tn)
	before := tn.hosts[0].PktsOut + tn.hosts[1].PktsOut
	n := testing.AllocsPerRun(50, func() { tn.sched.RunFor(100 * vtime.Millisecond) })
	segs := tn.hosts[0].PktsOut + tn.hosts[1].PktsOut - before
	if segs < 5000 || tn.emu.Totals().VirtualDrops != 0 {
		t.Fatalf("test premise: a lossless bulk flow should move thousands of segments (moved %d, totals %+v)", segs, tn.emu.Totals())
	}
	if n != 0 {
		t.Fatalf("steady-state bulk transfer: %v allocs per 100 ms (%d segments in all), want 0", n, segs)
	}
}

// BenchmarkTCPSegment prices one TCP packet — data segments and the ACKs
// they draw — of a lossless bulk flow over a one-hop emulated line: netstack
// plus exactly one emucore hop each.
func BenchmarkTCPSegment(b *testing.B) {
	tn := newLineNet(b)
	startBulk(b, tn)
	segs := func() uint64 { return tn.hosts[0].PktsOut + tn.hosts[1].PktsOut }
	b.ReportAllocs()
	b.ResetTimer()
	for end := segs() + uint64(b.N); segs() < end; {
		tn.sched.RunFor(vtime.Millisecond)
	}
}

// twoLoopNet joins host 0 on one scheduler to host 1 on another — two event
// loops, as two shards or two worker processes are — by a fixed-delay link.
type twoLoopNet struct {
	sched   [2]*vtime.Scheduler
	deliver [2]func(*pipes.Packet)
}

func (n *twoLoopNet) RegisterVN(vn pipes.VN, fn func(*pipes.Packet)) { n.deliver[vn] = fn }

func (n *twoLoopNet) Inject(src, dst pipes.VN, size int, payload any) bool {
	pkt := &pipes.Packet{Src: src, Dst: dst, Size: size, Payload: payload}
	fn := n.deliver[dst]
	n.sched[dst].At(n.sched[src].Now().Add(vtime.Millisecond), func() { fn(pkt) })
	return true
}

// step fires the globally earliest event; false when both loops are idle.
func (n *twoLoopNet) step() bool {
	a, b := n.sched[0].NextEventTime(), n.sched[1].NextEventTime()
	if a == vtime.Forever && b == vtime.Forever {
		return false
	}
	if a <= b {
		return n.sched[0].Step()
	}
	return n.sched[1].Step()
}

// A flow between two loops moves segments one way: the receiver's list only
// ever gains the data segments (less the ACKs it sends), the sender's only
// the ACKs. The receiver's list must stop at maxSegFree.
func TestSegmentPoolBounded(t *testing.T) {
	n := &twoLoopNet{sched: [2]*vtime.Scheduler{vtime.NewScheduler(), vtime.NewScheduler()}}
	a := NewHost(0, n.sched[0], n, n)
	b := NewHost(1, n.sched[1], n, n)
	if a.pool == b.pool {
		t.Fatal("hosts on different schedulers share a free list")
	}
	if _, err := b.Listen(80, func(*Conn) Handlers { return Handlers{} }); err != nil {
		t.Fatal(err)
	}
	// Every two data segments draw one ACK, so the receiver nets one segment
	// per two received: 3·maxSegFree segments overfill the list by half.
	c := a.Dial(Endpoint{1, 80}, Handlers{})
	c.WriteCount(3 * maxSegFree * MSS)
	c.Close()
	peak := 0
	for n.step() {
		if l := len(b.pool.segs.free); l > peak {
			peak = l
		}
	}
	if !c.finAcked {
		t.Fatalf("test premise: the transfer should complete (receiver got %d bytes)", b.BytesIn)
	}
	if peak != maxSegFree {
		t.Fatalf("receiver-side free list peaked at %d segments, want the cap %d", peak, maxSegFree)
	}
	if l := len(a.pool.segs.free); l > 2*DefaultWindow/MSS {
		t.Fatalf("sender-side free list holds %d segments: it only ever receives ACKs", l)
	}
}

// holdNet is a one-scheduler network with a fixed delay, plus whatever extra
// delay hold returns for a segment. It logs every segment pointer it carries.
type holdNet struct {
	sched   *vtime.Scheduler
	deliver [2]func(*pipes.Packet)
	hold    func(src pipes.VN, seg *Segment) vtime.Duration
	carried []*Segment
}

func (n *holdNet) RegisterVN(vn pipes.VN, fn func(*pipes.Packet)) { n.deliver[vn] = fn }

func (n *holdNet) Inject(src, dst pipes.VN, size int, payload any) bool {
	seg := payload.(*Segment)
	n.carried = append(n.carried, seg)
	pkt := &pipes.Packet{Src: src, Dst: dst, Size: size, Payload: payload}
	fn := n.deliver[dst]
	n.sched.After(vtime.Millisecond+n.hold(src, seg), func() { fn(pkt) })
	return true
}

type tag struct{ id int }

// Segments that arrive ahead of a gap leave their Data and Msgs behind in
// the reassembly queue and are recycled at once — and reused, here by the
// duplicate ACKs they provoke and by the sender's later data — long before
// the gap fills. What the application is finally handed must be the bytes
// and objects that were written.
func TestRecycledSegmentLeavesNoAlias(t *testing.T) {
	n := &holdNet{sched: vtime.NewScheduler()}
	a := NewHost(0, n.sched, n, n)
	b := NewHost(1, n.sched, n, n)
	if a.pool != b.pool {
		t.Fatal("hosts on one scheduler do not share a free list")
	}
	// The first data segment (stream offset 1) is held back 50 ms, once.
	held := false
	n.hold = func(src pipes.VN, seg *Segment) vtime.Duration {
		if src == 0 && seg.Len > 0 && seg.Seq == 1 && !held {
			held = true
			return 50 * vtime.Millisecond
		}
		return 0
	}
	var got []byte
	var objs []any
	gapFilledAt := -1
	if _, err := b.Listen(80, func(*Conn) Handlers {
		return Handlers{
			OnData: func(_ *Conn, _ int, data []byte) {
				if gapFilledAt < 0 {
					gapFilledAt = len(n.carried)
				}
				got = append(got, data...)
			},
			OnMsg: func(_ *Conn, obj any) { objs = append(objs, obj) },
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Real bytes with an object riding the end of every 1000: segments carry
	// both a Data slice and Msgs markers, and a full window is in flight.
	rng := rand.New(rand.NewSource(3))
	var want []byte
	var wantObjs []any
	c := a.Dial(Endpoint{1, 80}, Handlers{})
	c.cwnd = DefaultWindow // a whole window behind the held segment
	for i := 0; i < 40; i++ {
		chunk := make([]byte, 999)
		rng.Read(chunk)
		c.Write(chunk)
		obj := &tag{i}
		c.WriteMsg(obj, 1)
		want = append(append(want, chunk...), 0)
		wantObjs = append(wantObjs, obj)
	}
	c.Close()
	n.sched.Run()

	// Premise: segments that were parked in the reassembly queue were reused
	// for other packets before the gap filled.
	first := map[*Segment]bool{}
	reused := 0
	for _, seg := range n.carried[:max(gapFilledAt, 0)] {
		if first[seg] {
			reused++
		}
		first[seg] = true
	}
	if !c.finAcked || reused < 10 {
		t.Fatalf("test premise: the transfer should complete (%v) with segments reused before the gap filled (%d)", c.finAcked, reused)
	}
	// OnData reports synthetic bytes (the WriteMsg byte) as zeros only when
	// the segment mixes them with real ones; compare the real bytes.
	if len(got) != len(want) {
		t.Fatalf("delivered %d bytes, wrote %d", len(got), len(want))
	}
	for i := 0; i < 40; i++ {
		if lo, hi := i*1000, i*1000+999; !bytes.Equal(got[lo:hi], want[lo:hi]) {
			t.Fatalf("bytes of write %d were corrupted in the reassembly queue", i)
		}
	}
	if len(objs) != len(wantObjs) {
		t.Fatalf("delivered %d objects, wrote %d", len(objs), len(wantObjs))
	}
	for i := range objs {
		if objs[i] != wantObjs[i] {
			t.Fatalf("object %d: got %v, want %v", i, objs[i], wantObjs[i])
		}
	}
}

// lossyNet is the network of the re-arm test: seeded loss and jitter (hence
// reordering) on one scheduler, logging every segment transmitted. With
// perSegment set it also restores the parent's retransmit arming — the
// reference: wherever the stack defers the arm for a segment it is about to
// transmit (rtxDirty), arm right after that segment instead, and leave
// nothing deferred.
type lossyNet struct {
	sched      *vtime.Scheduler
	rng        *rand.Rand
	loss       float64
	jitter     vtime.Duration
	hosts      [2]*Host
	deliver    [2]func(*pipes.Packet)
	perSegment bool
	sent       []string
}

func (n *lossyNet) RegisterVN(vn pipes.VN, fn func(*pipes.Packet)) { n.deliver[vn] = fn }

func (n *lossyNet) Inject(src, dst pipes.VN, size int, payload any) bool {
	seg := payload.(*Segment)
	n.sent = append(n.sent, fmt.Sprintf("%d vn%d %v win=%d msgs=%d", n.sched.Now(), src, seg, seg.Window, len(seg.Msgs)))
	lost := n.rng.Float64() < n.loss
	delay := 2*vtime.Millisecond + vtime.Duration(n.rng.Int63n(int64(n.jitter)+1))
	if !lost {
		pkt := &pipes.Packet{Src: src, Dst: dst, Size: size, Payload: payload}
		fn := n.deliver[dst]
		n.sched.After(delay, func() { fn(pkt) })
	}
	if n.perSegment {
		if c := n.hosts[src].conns[makeConnKey(seg.SrcPort, Endpoint{dst, seg.DstPort})]; c != nil && c.rtxDirty {
			c.rtxDirty = false
			c.armRtx()
		}
	}
	return true
}

// pending is the scheduler's pending set in firing order, as (at, tag).
func pending(s *vtime.Scheduler) string {
	st := s.Snapshot()
	out := make([]byte, 0, 16*len(st.Events))
	for _, ev := range st.Events {
		out = fmt.Appendf(out, "%d/%d ", ev.At, ev.Tag)
	}
	return string(out)
}

// rearmWorld is one run of a scenario: a network, two hosts, the
// connections the scenario opened.
type rearmWorld struct {
	net   *lossyNet
	conns []*Conn
}

// dial connects host 0 to host 1 with the given OnConnect on each side
// (and OnData on the server's).
func (w *rearmWorld) dial(t *testing.T, client, server Handlers) {
	if _, err := w.net.hosts[1].Listen(80, func(c *Conn) Handlers {
		w.conns = append(w.conns, c)
		return server
	}); err != nil {
		t.Fatal(err)
	}
	w.conns = append(w.conns, w.net.hosts[0].Dial(Endpoint{1, 80}, client))
}

// chatter is the seeded scenario: under 8 % loss and 6 ms of jitter both
// hosts stream to each other in bursts of 1–6 segments' worth, as bytes or
// as messages, with 0–400 ms of think time between bursts, then close. So
// segments carry new ACKs and data together, windows open and close, and
// losses are repaired by fast recovery and by timeout.
func chatter(t *testing.T, w *rearmWorld, seed int64) {
	n := w.net
	n.loss, n.jitter = 0.08, 6*vtime.Millisecond
	app := rand.New(rand.NewSource(seed ^ 0x5eed))
	talk := func(c *Conn) {
		bursts := 60
		var next func()
		next = func() {
			if bursts == 0 {
				c.Close()
				return
			}
			bursts--
			if size := 1 + app.Intn(6*MSS); app.Intn(2) == 0 {
				c.WriteCount(size)
			} else {
				c.WriteMsg(size, size)
			}
			n.sched.After(vtime.Duration(app.Int63n(int64(400*vtime.Millisecond))), next)
		}
		next()
	}
	w.dial(t, Handlers{OnConnect: talk}, Handlers{OnConnect: talk})
}

// timerTie is the scripted scenario that puts the retransmit timer and the
// delayed-ACK timer of one connection on the same instant, armed by the
// same input, and lets both fire. Lossless, 2 ms each way. The client writes
// three segments into an initial window of two; the server answers the
// second with 100 bytes, which reach the client on a segment that
// acknowledges new data (the first RTT sample: RTO 200 ms; the window opens,
// segment three goes out and the retransmit timer restarts) and carries
// in-order data (the delayed-ACK timer starts, 200 ms). The server sits on
// its ACK of segment three for its own 200 ms, so both client timers expire
// together and fire in the order they were armed: retransmission first.
func timerTie(t *testing.T, w *rearmWorld, _ int64) {
	rcvd := 0
	w.dial(t,
		Handlers{OnConnect: func(c *Conn) { c.WriteCount(3 * MSS) }},
		Handlers{OnData: func(c *Conn, n int, _ []byte) {
			if rcvd += n; rcvd == 2*MSS {
				c.WriteCount(100)
			}
		}})
}

func newRearmWorld(t *testing.T, scenario func(*testing.T, *rearmWorld, int64), seed int64, perSegment bool) *rearmWorld {
	n := &lossyNet{sched: vtime.NewScheduler(), rng: rand.New(rand.NewSource(seed)), perSegment: perSegment}
	w := &rearmWorld{net: n}
	for vn := range n.hosts {
		n.hosts[vn] = NewHost(pipes.VN(vn), n.sched, n, n)
	}
	scenario(t, w, seed)
	return w
}

// The retransmit timer is armed once per input, where the last of the
// parent's per-segment arms ran. Per-segment arming is kept here as the
// reference, and the two must transmit the identical segments at the
// identical times and hold the identical pending events, in firing order,
// after every single event.
func TestRearmMatchesPerSegmentArming(t *testing.T) {
	// run steps a scenario's two worlds in lockstep and returns the one-arm
	// world for the caller's premise checks.
	run := func(name string, scenario func(*testing.T, *rearmWorld, int64), seed int64) *rearmWorld {
		ref, got := newRearmWorld(t, scenario, seed, true), newRearmWorld(t, scenario, seed, false)
		for step := 0; ; step++ {
			more, moreRef := got.net.sched.Step(), ref.net.sched.Step()
			if more != moreRef {
				t.Fatalf("%s seed %d step %d: one run ended before the other", name, seed, step)
			}
			if !more {
				break
			}
			if a, b := len(got.net.sent), len(ref.net.sent); a != b || a > 0 && got.net.sent[a-1] != ref.net.sent[b-1] {
				t.Fatalf("%s seed %d step %d: transmitted segments diverge:\n one arm:     %v\n per segment: %v",
					name, seed, step, tail(got.net.sent), tail(ref.net.sent))
			}
			if a, b := pending(got.net.sched), pending(ref.net.sched); a != b {
				t.Fatalf("%s seed %d step %d (t=%v): pending events diverge:\n one arm:     %s\n per segment: %s",
					name, seed, step, got.net.sched.Now(), a, b)
			}
		}
		if a, b := got.net.sched.Fired(), ref.net.sched.Fired(); a != b {
			t.Fatalf("%s seed %d: fired %d events, reference %d", name, seed, a, b)
		}
		return got
	}

	w := run("timer-tie", timerTie, 1)
	if c := w.conns[0]; c.Timeouts != 1 || c.Retransmits != 1 || c.BytesSent != 3*MSS {
		t.Fatalf("test premise: the client's retransmit timer should fire once, with the delayed ACK's (%d timeouts, %d retransmits, %d bytes acked)",
			c.Timeouts, c.Retransmits, c.BytesSent)
	}

	var recoveries, timeouts, closed uint64
	for seed := int64(1); seed <= 12; seed++ {
		for _, c := range run("chatter", chatter, seed).conns {
			recoveries += c.FastRecoveries
			timeouts += c.Timeouts
			if c.removed && c.peerFinDone {
				closed++
			}
		}
	}
	if recoveries < 10 || timeouts < 10 || closed < 10 {
		t.Fatalf("test premise: the seeded runs should cover fast recovery, RTO and FIN close (%d recoveries, %d timeouts, %d FIN-closed conns)",
			recoveries, timeouts, closed)
	}
}

func tail(s []string) []string {
	if len(s) > 3 {
		s = s[len(s)-3:]
	}
	return s
}

// A message costs its sender one allocation — the Msgs marker slice that
// rides the segment and is left with the receiver — and its receiver none:
// acknowledged chunks and delivered markers are dropped from their queues in
// place (the parent rebuilt both slices on every pop, one more allocation
// per message on each side).
func TestWriteMsgAllocs(t *testing.T) {
	tn := newStarNet(t, 2, 10, 1, 0, emucore.IdealProfile())
	var obj any = &tag{1}
	echoed := 0
	if _, err := tn.hosts[1].Listen(80, func(*Conn) Handlers {
		return Handlers{OnMsg: func(c *Conn, obj any) { c.WriteMsg(obj, 300) }}
	}); err != nil {
		t.Fatal(err)
	}
	c := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{OnMsg: func(c *Conn, obj any) {
		echoed++
		c.WriteMsg(obj, 300)
	}})
	c.WriteMsg(obj, 300)
	tn.sched.RunFor(5 * vtime.Second) // warm: queues, free lists, RTT estimate
	before := echoed
	n := testing.AllocsPerRun(20, func() { tn.sched.RunFor(vtime.Second) })
	perRun := float64(echoed-before) / 21
	if perRun < 100 {
		t.Fatalf("test premise: the echo should turn hundreds of times a second (%v per run)", perRun)
	}
	// Each turn is two messages, one each way.
	if perMsg := n / (2 * perRun); perMsg > 1.01 {
		t.Fatalf("WriteMsg echo: %.2f allocs per message, want 1 (the marker slice)", perMsg)
	}
}
