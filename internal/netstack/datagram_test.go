package netstack

// Datagram and RPC-frame ownership, mirroring segment_test.go.
//
// A *Datagram is taken off the sending host's loop-local free list and put
// back by the receiving host when the socket's handler returns; an RPC
// frame rides the same way inside it. Neither may be visible to the
// simulation or to a handler that keeps what it is allowed to keep: these
// tests pin the allocation counts, the lists' bound, that a kept Data or Obj
// survives the struct's reuse, and a datagram that is taken on one event
// loop and put back on another while both run.

import (
	"bytes"
	"testing"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// newChainNet is two hosts at the ends of a 12-hop emulated chain: the
// per-packet work of the ring benchmark.
func newChainNet(tb testing.TB) *testNet {
	return newPairNet(tb, topology.Line(11, topology.LinkAttrs{BandwidthBps: 1e9, LatencySec: 1e-3, QueuePkts: 100}))
}

// startCBR sends one 1000-byte datagram a millisecond from host 0 to a
// counting sink on host 1 and runs past warm-up. It returns the sink's count.
func startCBR(tb testing.TB, tn *testNet) *int {
	tb.Helper()
	rcvd := new(int)
	if _, err := tn.hosts[1].OpenUDP(9, func(_ Endpoint, dg *Datagram) { *rcvd += dg.Len }); err != nil {
		tb.Fatal(err)
	}
	sock, err := tn.hosts[0].OpenUDP(0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	vtime.NewTicker(tn.sched, vtime.Millisecond, func() { sock.SendTo(Endpoint{1, 9}, 1000, nil) }).Start()
	tn.sched.RunFor(100 * vtime.Millisecond) // warm: packet pool, event records, pipe queues, free list
	return rcvd
}

// syncNet delivers inside Inject: what a loopback send looks like to the
// stack — the datagram is handled, and recycled, before sendTo returns.
type syncNet struct {
	deliver map[pipes.VN]func(*pipes.Packet)
	pkt     pipes.Packet
}

func (n *syncNet) RegisterVN(vn pipes.VN, fn func(*pipes.Packet)) { n.deliver[vn] = fn }

func (n *syncNet) Inject(src, dst pipes.VN, size int, payload any) bool {
	n.pkt = pipes.Packet{Src: src, Dst: dst, Size: size, Payload: payload}
	n.deliver[dst](&n.pkt)
	return true
}

// A UDP packet in steady state allocates nothing, over twelve emulated hops
// and over loopback: the datagram circulates through the loop's free list
// (the parent allocated one Datagram per packet).
func TestDatagramAllocs(t *testing.T) {
	tn := newChainNet(t)
	rcvd := startCBR(t, tn)
	before := *rcvd
	n := testing.AllocsPerRun(50, func() { tn.sched.RunFor(100 * vtime.Millisecond) })
	if pkts := (*rcvd - before) / 1000; pkts != 51*100 || tn.emu.Totals().VirtualDrops != 0 {
		t.Fatalf("test premise: every datagram should cross the chain (%d delivered, totals %+v)", pkts, tn.emu.Totals())
	}
	if n != 0 {
		t.Fatalf("steady-state CBR over 12 hops: %v allocs per 100 packets, want 0", n)
	}

	// Loopback: the socket sends to its own host, which handles the datagram
	// inside SendTo. The handler sees the fields of the datagram sent.
	loop := &syncNet{deliver: map[pipes.VN]func(*pipes.Packet){}}
	h := NewHost(0, vtime.NewScheduler(), loop, loop)
	obj := &tag{7}
	got := 0
	sock, err := h.OpenUDP(9, func(from Endpoint, dg *Datagram) {
		if from != (Endpoint{0, 9}) || dg.Len != 300 || dg.Obj != any(obj) || dg.Data != nil {
			t.Errorf("loopback handler got %v from %v", dg, from)
		}
		got++
	})
	if err != nil {
		t.Fatal(err)
	}
	var o any = obj
	sock.SendTo(sock.Addr(), 300, o) // warm the free list
	if n := testing.AllocsPerRun(200, func() { sock.SendTo(sock.Addr(), 300, o) }); n != 0 {
		t.Fatalf("loopback SendTo: %v allocs per packet, want 0", n)
	}
	if got != 202 || len(h.pool.dgrams.free) != 1 {
		t.Fatalf("test premise: one datagram should serve every loopback send (%d delivered, %d parked)", got, len(h.pool.dgrams.free))
	}
}

// BenchmarkUDPSendDeliver prices one UDP packet end to end — SendTo, twelve
// emulated hops, the sink's handler — the per-packet work of ring-seq.
func BenchmarkUDPSendDeliver(b *testing.B) {
	tn := newChainNet(b)
	startCBR(b, tn)
	b.ReportAllocs()
	b.ResetTimer()
	for end := tn.hosts[1].PktsIn + uint64(b.N); tn.hosts[1].PktsIn < end; {
		tn.sched.RunFor(vtime.Millisecond)
	}
}

// A loop that only receives — here RPC requests nobody answers, so a
// datagram and a frame arrive per call and nothing is ever sent — keeps
// maxSegFree of each and lets the rest go; the loop that only sends parks
// nothing.
func TestDatagramPoolBounded(t *testing.T) {
	n := &twoLoopNet{sched: [2]*vtime.Scheduler{vtime.NewScheduler(), vtime.NewScheduler()}}
	a := NewHost(0, n.sched[0], n, n)
	b := NewHost(1, n.sched[1], n, n)
	served := 0
	srv, err := NewRPCNode(b, 9, func(Endpoint, any, int) (any, int) { served++; return nil, 0 })
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewRPCNode(a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const calls = maxSegFree + maxSegFree/4
	failed := 0
	for i := 0; i < calls; i++ {
		cli.Call(srv.Addr(), nil, 64, CallOpts{}, func(_ any, err error) {
			if err == ErrRPCTimeout {
				failed++
			}
		})
	}
	peakDgrams, peakFrames := 0, 0
	for n.step() {
		peakDgrams = max(peakDgrams, len(b.pool.dgrams.free))
		peakFrames = max(peakFrames, len(b.pool.frames.free))
	}
	if served != calls || failed != calls {
		t.Fatalf("test premise: every request should arrive and time out unanswered (%d served, %d failed of %d)", served, failed, calls)
	}
	if peakDgrams != maxSegFree || peakFrames != maxSegFree {
		t.Fatalf("receiver-side free lists peaked at %d datagrams and %d frames, want the cap %d", peakDgrams, peakFrames, maxSegFree)
	}
	if d, f := len(a.pool.dgrams.free), len(a.pool.frames.free); d != 0 || f != 0 {
		t.Fatalf("sender-side free lists hold %d datagrams and %d frames: that loop receives nothing", d, f)
	}
}

// refuseNet refuses every packet, as a saturated NIC or a missing route does.
type refuseNet struct{}

func (refuseNet) RegisterVN(pipes.VN, func(*pipes.Packet)) {}
func (refuseNet) Inject(_, _ pipes.VN, _ int, _ any) bool  { return false }

// A datagram the injector refuses never entered the network: Host.send
// releases it, cleared, and the next send takes it again.
func TestRefusedDatagramIsRecycled(t *testing.T) {
	h := NewHost(0, vtime.NewScheduler(), refuseNet{}, refuseNet{})
	sock, err := h.OpenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if sock.SendTo(Endpoint{1, 9}, 100, &tag{i}) {
			t.Fatal("test premise: the injector refuses")
		}
	}
	parked := h.pool.dgrams.free
	if h.InjectFailures != 3 || len(parked) != 1 {
		t.Fatalf("%d refusals left %d datagrams parked, want the one struct reused", h.InjectFailures, len(parked))
	}
	if dg := parked[0]; dg.Obj != nil || dg.Len != 0 {
		t.Fatalf("parked datagram still holds %+v", *dg)
	}
}

// A handler may keep dg.Data and dg.Obj. The struct that carried them is
// reused by the very next send; what the handler kept must still read as
// sent, and a datagram parked on the free list must hold neither reference.
func TestRecycledDatagramLeavesNoAlias(t *testing.T) {
	tn := newLineNet(t)
	type kept struct {
		dg   *Datagram
		data []byte
		obj  any
	}
	var got []kept
	if _, err := tn.hosts[1].OpenUDP(9, func(_ Endpoint, dg *Datagram) {
		got = append(got, kept{dg, dg.Data, dg.Obj})
	}); err != nil {
		t.Fatal(err)
	}
	sock, err := tn.hosts[0].OpenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One datagram in flight at a time, alternately real bytes and an
	// object, so each send reuses the struct the last delivery released.
	const rounds = 20
	var wantData [][]byte
	var wantObj []any
	buf := make([]byte, 100)
	for i := 0; i < rounds; i++ {
		if i%2 == 0 {
			for j := range buf {
				buf[j] = byte(i + j)
			}
			sock.SendBytes(Endpoint{1, 9}, buf)
			wantData, wantObj = append(wantData, append([]byte(nil), buf...)), append(wantObj, nil)
		} else {
			obj := &tag{i}
			sock.SendTo(Endpoint{1, 9}, 100, obj)
			wantData, wantObj = append(wantData, nil), append(wantObj, obj)
		}
		tn.sched.Run()
	}
	if len(got) != rounds {
		t.Fatalf("delivered %d of %d datagrams", len(got), rounds)
	}
	for i, k := range got {
		if k.dg != got[0].dg {
			t.Fatalf("test premise: datagram %d should reuse the first one's struct", i)
		}
		if !bytes.Equal(k.data, wantData[i]) || k.obj != wantObj[i] {
			t.Fatalf("datagram %d: the handler's kept Data/Obj read %v / %v, sent %v / %v", i, k.data, k.obj, wantData[i], wantObj[i])
		}
	}
	parked := tn.hosts[0].pool.dgrams.free
	if len(parked) != 1 || parked[0] != got[0].dg {
		t.Fatalf("test premise: the one datagram should be parked (%d on the list)", len(parked))
	}
	if dg := parked[0]; dg.Data != nil || dg.Obj != nil || dg.Len != 0 {
		t.Fatalf("parked datagram still holds %+v", *dg)
	}
}

// A 2-shard in-process run: each shard is a goroutine with its own
// scheduler, and a CBR flow crosses from one to the other. Every datagram
// is taken from the sending loop's list and put back on the receiving
// loop's, by pointer — the race detector watches the handover.
func TestDatagramCrossesShards(t *testing.T) {
	g := topology.Line(3, topology.LinkAttrs{BandwidthBps: 1e9, LatencySec: 1e-3, QueuePkts: 100})
	b, err := bind.Bind(g, bind.Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, g.NumLinks()) // two blocks of link IDs
	for i := range owner {
		owner[i] = 2 * i / len(owner)
	}
	asn := &assign.Assignment{Owner: owner, Cores: 2}
	par, err := parcore.New(parcore.Config{Graph: g, Binding: b, Assignment: asn, Profile: emucore.IdealProfile(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.HomeOf(0) == par.HomeOf(1) {
		t.Fatal("test premise: the chain's two ends should home on different shards")
	}
	var hosts [2]*Host
	for vn := range hosts {
		emu := par.EmuOf(pipes.VN(vn))
		hosts[vn] = NewHost(pipes.VN(vn), par.SchedOf(pipes.VN(vn)), emu, emu)
	}
	if hosts[0].pool == hosts[1].pool {
		t.Fatal("hosts on different shards share a free list")
	}
	seen := map[*Datagram]bool{}
	if _, err := hosts[1].OpenUDP(9, func(_ Endpoint, dg *Datagram) { seen[dg] = true }); err != nil {
		t.Fatal(err)
	}
	sock, err := hosts[0].OpenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const pkts = 500
	sent := 0
	var tick *vtime.Ticker
	tick = vtime.NewTicker(par.SchedOf(0), vtime.Millisecond, func() {
		if sent++; sent == pkts {
			tick.Stop()
		}
		sock.SendTo(Endpoint{1, 9}, 200, nil)
	})
	tick.Start()
	par.RunFor(vtime.Second)
	// The sender's list never gains one, so each send allocated; each was
	// released where it arrived.
	if rcvd := len(hosts[1].pool.dgrams.free); len(seen) != pkts || rcvd != pkts {
		t.Fatalf("%d distinct datagrams delivered, %d parked on the receiving loop, want %d of each", len(seen), rcvd, pkts)
	}
	if l := len(hosts[0].pool.dgrams.free); l != 0 {
		t.Fatalf("the sending loop's list holds %d datagrams: it receives nothing", l)
	}
	for _, dg := range hosts[1].pool.dgrams.free {
		if !seen[dg] {
			t.Fatal("a datagram on the receiving loop's list was never delivered there")
		}
	}
}

// One RPC — request, handler, response, done — costs its caller four
// allocations (the call record, its retry timer, and the bound expire and
// onTimeout callbacks) and the wire nothing: both datagrams and both frames
// come off the loop's free list. The parent measured 8 here: the same four,
// two Datagrams, two frames.
func TestRPCCallAllocs(t *testing.T) {
	tn := newLineNet(t)
	var resp any = &tag{2}
	srv, err := NewRPCNode(tn.hosts[1], 9, func(_ Endpoint, body any, _ int) (any, int) { return resp, 64 })
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewRPCNode(tn.hosts[0], 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var req any = &tag{1}
	ok := 0
	done := func(r any, err error) {
		if r == resp && err == nil {
			ok++
		}
	}
	call := func() {
		cli.Call(srv.Addr(), req, 64, CallOpts{}, done)
		tn.sched.Run()
	}
	call() // warm: free lists, the pending map, packet pool, event records
	n := testing.AllocsPerRun(200, call)
	if ok != 202 || cli.Timeouts != 0 {
		t.Fatalf("test premise: every call should be answered (%d of 202, %d timeouts)", ok, cli.Timeouts)
	}
	if n != 4 {
		t.Fatalf("one RPC: %v allocs, want 4 (call record, timer, two bound callbacks)", n)
	}
}

// Close fails what is pending in the order the calls were issued, whatever
// order the pending map ranges in: the callbacks may send, so their order is
// simulated behaviour.
func TestRPCCloseFailsPendingInCallOrder(t *testing.T) {
	const calls = 16
	for run := 0; run < 50; run++ {
		tn := newLineNet(t)
		cli, err := NewRPCNode(tn.hosts[0], 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		for i := 0; i < calls; i++ {
			i := i
			cli.Call(Endpoint{1, 9}, nil, 64, CallOpts{}, func(_ any, err error) {
				if err != ErrRPCTimeout {
					t.Errorf("call %d: err %v", i, err)
				}
				order = append(order, i)
			})
		}
		cli.Close()
		if len(order) != calls {
			t.Fatalf("run %d: Close failed %d of %d pending calls", run, len(order), calls)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("run %d: pending calls failed in order %v, want call order", run, order)
			}
		}
		tn.sched.Run()
		if len(order) != calls || cli.Timeouts != 0 {
			t.Fatalf("run %d: a closed call fired again (%d callbacks, %d timeouts)", run, len(order), cli.Timeouts)
		}
	}
}
