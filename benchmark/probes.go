package main

// Layer probes: one tight, fixed-iteration loop per layer over that layer's
// public functions, reporting ns/op (median of probeRounds rounds) and
// allocs/op (runtime mallocs over all rounds, to a hundredth; deterministic,
// so it repeats exactly run to run). The probes never touch unexported state, so they
// keep measuring the same thing while a layer's internals change.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"modelnet"
	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/distill"
	"modelnet/internal/emucore"
	"modelnet/internal/fednet/wire"
	"modelnet/internal/netstack"
	"modelnet/internal/obs"
	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

const probeRounds = 5

// meter accumulates one probe's rounds.
type meter struct {
	nsPerOp []float64
	mallocs uint64
	ops     uint64
}

// run times one round of ops operations.
func (m *meter) run(ops int, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	fn()
	el := time.Since(begin)
	runtime.ReadMemStats(&after)
	m.nsPerOp = append(m.nsPerOp, float64(el.Nanoseconds())/float64(ops))
	m.mallocs += after.Mallocs - before.Mallocs
	m.ops += uint64(ops)
}

func (m *meter) ns() float64 { return median(m.nsPerOp) }

// allocs is mallocs per operation, rounded to a hundredth: the runtime's own
// few allocations during a round would otherwise show in the last digits.
func (m *meter) allocs() float64 { return math.Round(100*float64(m.mallocs)/float64(m.ops)) / 100 }

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink int

// runProbes runs every layer probe and returns the metrics by name.
func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range []func(map[string]float64) error{
		probeVtime, probePipes, probeEmucore, probeNetstack, probeBind, probeParcoreWire, probeObs,
	} {
		runtime.GC()
		if err := p(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeVtime churns a scheduler holding 512 pending events — the ring
// workload holds ≈400, one pacing event per VN plus the core's activation —
// where every fired event reschedules itself through At or AtTagged.
func probeVtime(out map[string]float64) error {
	s := vtime.NewScheduler()
	rng := rand.New(rand.NewSource(1))
	delays := make([]vtime.Duration, 4096)
	for i := range delays {
		delays[i] = vtime.Duration(rng.Intn(1000) + 1)
	}
	n := 0
	for i := 0; i < 512; i++ {
		tag := int32(i)
		var recur func()
		recur = func() {
			n++
			at := s.Now().Add(delays[n&4095])
			if tag&1 == 0 {
				s.At(at, recur)
			} else {
				s.AtTagged(at, tag, recur)
			}
		}
		s.At(vtime.Time(delays[i]), recur)
	}
	var m meter
	for r := 0; r < probeRounds; r++ {
		m.run(400_000, func() {
			for i := 0; i < 400_000; i++ {
				s.Step()
			}
		})
	}
	out["vtime.sched_ns_per_event"] = m.ns()
	out["vtime.sched_allocs_per_event"] = m.allocs()
	return nil
}

// probePipes moves pooled descriptors through 64 gigabit pipes under a pipe
// heap: one Enqueue + Heap.Update, then PopReady/DequeueReady of whatever
// came due, per operation. 5 ms of latency at 1 µs per step keeps ~5000
// packets in flight, so both queues and the heap stay populated.
func probePipes(out map[string]float64) error {
	const nPipes = 64
	ps := make([]*pipes.Pipe, nPipes)
	for i := range ps {
		ps[i] = pipes.New(pipes.ID(i), pipes.Params{BandwidthBps: 1e9, Latency: 5 * vtime.Millisecond, QueuePkts: 400}, 1)
	}
	h := pipes.NewHeap()
	var pool pipes.PacketPool
	now := vtime.Time(0)
	recycle := func(pkt *pipes.Packet, _ vtime.Time) { pool.Put(pkt) }
	drain := func(p *pipes.Pipe) {
		p.DequeueReady(now, recycle)
		h.Update(p)
	}
	step := func(i int) {
		now = now.Add(vtime.Microsecond)
		p := ps[i%nPipes]
		pkt := pool.Get()
		pkt.Size = 1000
		if reason, _ := p.Enqueue(pkt, now); reason != pipes.DropNone {
			pool.Put(pkt)
		}
		h.Update(p)
		h.PopReady(now, drain)
	}
	for i := 0; i < 20_000; i++ { // reach steady state
		step(i)
	}
	var m meter
	for r := 0; r < probeRounds; r++ {
		m.run(400_000, func() {
			for i := 0; i < 400_000; i++ {
				step(i)
			}
		})
	}
	out["pipes.enq_deq_ns"] = m.ns()
	out["pipes.enq_deq_allocs"] = m.allocs()
	return nil
}

// acceptedHops sums Pipe.Accepted over an emulator's materialized pipes.
func acceptedHops(emu *emucore.Emulator) uint64 {
	var n uint64
	emu.ScanMaterialized(func(p *pipes.Pipe) { n += p.Accepted })
	return n
}

// probeEmucore injects packets into a 12-router line (14 pipes end to end)
// 20 µs apart and runs them through: the full per-hop path — route lookup,
// pipe admission, core scheduling, delivery — under the ideal profile and
// under the hardware model.
func probeEmucore(out map[string]float64) error {
	hop := func(prof *modelnet.Profile) (*meter, error) {
		attr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(1000), LatencySec: modelnet.Ms(1), QueuePkts: 1000}
		em, err := modelnet.Run(modelnet.Line(12, attr), modelnet.Options{Profile: prof, Seed: 1})
		if err != nil {
			return nil, err
		}
		em.NewHosts()
		const packets = 4000
		var m meter
		for r := 0; r < probeRounds+1; r++ {
			base := em.Now()
			for i := 0; i < packets; i++ {
				em.Sched.At(base.Add(vtime.Duration(i)*20*vtime.Microsecond), func() {
					em.Emu.Inject(0, 1, 1000, nil)
				})
			}
			before := acceptedHops(em.Emu)
			run := func() { em.RunFor(modelnet.Seconds(1)) }
			if r == 0 {
				run() // warm the pools
				continue
			}
			// ops is not known before the round runs; time it, then fix up.
			m.run(1, run)
			hops := acceptedHops(em.Emu) - before
			if hops == 0 || em.Totals().PhysDrops != 0 {
				return nil, fmt.Errorf("emucore probe: %d hops, totals %+v", hops, em.Totals())
			}
			m.nsPerOp[len(m.nsPerOp)-1] /= float64(hops)
			m.ops += hops - 1
		}
		return &m, nil
	}
	ideal := modelnet.IdealProfile()
	mi, err := hop(&ideal)
	if err != nil {
		return err
	}
	md, err := hop(nil)
	if err != nil {
		return err
	}
	out["emucore.hop_ns"] = mi.ns()
	out["emucore.hop_allocs"] = mi.allocs()
	out["emucore.hop_default_ns"] = md.ns()
	return nil
}

// loopNet is a one-event network for the netstack probes: Inject schedules
// the packet's delivery to the destination host delay later, so the probes
// price the transport stack plus exactly one scheduler event per packet.
type loopNet struct {
	sched   *vtime.Scheduler
	delay   vtime.Duration
	deliver map[pipes.VN]func(*pipes.Packet)
	packets uint64
	last    any // payload of the most recent packet
}

func newLoopNet() *loopNet {
	return &loopNet{sched: vtime.NewScheduler(), delay: vtime.Millisecond, deliver: map[pipes.VN]func(*pipes.Packet){}}
}

func (n *loopNet) RegisterVN(vn pipes.VN, fn func(*pipes.Packet)) { n.deliver[vn] = fn }

func (n *loopNet) Inject(src, dst pipes.VN, size int, payload any) bool {
	n.packets++
	n.last = payload
	pkt := &pipes.Packet{Src: src, Dst: dst, Size: size, Payload: payload}
	fn := n.deliver[dst]
	n.sched.After(n.delay, func() { fn(pkt) })
	return true
}

func (n *loopNet) host(vn pipes.VN) *netstack.Host { return netstack.NewHost(vn, n.sched, n, n) }

// probeNetstack prices one UDP datagram, one TCP packet (data segments and
// ACKs of a lossless bulk transfer) and one RPC call (request + response).
func probeNetstack(out map[string]float64) error {
	// UDP.
	net := newLoopNet()
	a, b := net.host(0), net.host(1)
	if _, err := b.OpenUDP(9, nil); err != nil {
		return err
	}
	sock, err := a.OpenUDP(0, nil)
	if err != nil {
		return err
	}
	dst := netstack.Endpoint{VN: 1, Port: 9}
	var mu meter
	for r := 0; r < probeRounds; r++ {
		mu.run(200_000, func() {
			for i := 0; i < 200_000; i++ {
				sock.SendTo(dst, 1000, nil)
				if i&255 == 255 {
					net.sched.Run()
				}
			}
			net.sched.Run()
		})
	}
	out["netstack.udp_pkt_ns"] = mu.ns()

	// TCP: one connection per round streams 4000 segments.
	net = newLoopNet()
	a, b = net.host(0), net.host(1)
	received := 0
	if _, err := b.Listen(80, func(*netstack.Conn) netstack.Handlers {
		return netstack.Handlers{OnData: func(_ *netstack.Conn, n int, _ []byte) { received += n }}
	}); err != nil {
		return err
	}
	var mt meter
	for r := 0; r < probeRounds; r++ {
		const bytes = 4000 * netstack.MSS
		before, got := net.packets, received
		conn := a.Dial(netstack.Endpoint{VN: 1, Port: 80}, netstack.Handlers{})
		conn.WriteCount(bytes)
		conn.Close()
		mt.run(1, func() { net.sched.RunFor(600 * vtime.Second) })
		if received-got != bytes {
			return fmt.Errorf("netstack probe: tcp delivered %d of %d bytes", received-got, bytes)
		}
		pkts := net.packets - before
		mt.nsPerOp[len(mt.nsPerOp)-1] /= float64(pkts)
		mt.ops += pkts - 1
	}
	out["netstack.tcp_seg_ns"] = mt.ns()
	out["netstack.tcp_seg_allocs"] = mt.allocs()

	// RPC: a closed chain of calls, each issued when the last one returns.
	net = newLoopNet()
	a, b = net.host(0), net.host(1)
	if _, err := netstack.NewRPCNode(b, 4000, func(netstack.Endpoint, any, int) (any, int) {
		return &netstack.Datagram{Len: 64}, 64
	}); err != nil {
		return err
	}
	caller, err := netstack.NewRPCNode(a, 0, nil)
	if err != nil {
		return err
	}
	var mr meter
	for r := 0; r < probeRounds; r++ {
		const calls = 50_000
		left, failed := calls, 0
		var next func()
		next = func() {
			if left == 0 {
				return
			}
			left--
			caller.Call(netstack.Endpoint{VN: 1, Port: 4000}, &netstack.Datagram{Len: 32}, 32, netstack.CallOpts{},
				func(_ any, err error) {
					if err != nil {
						failed++
					}
					next()
				})
		}
		next()
		mr.run(calls, func() { net.sched.Run() })
		if failed != 0 || left != 0 {
			return fmt.Errorf("netstack probe: %d rpc calls failed, %d not issued", failed, left)
		}
	}
	out["netstack.rpc_call_ns"] = mr.ns()

	// The last RPC packet's payload is a Datagram nesting an RPC frame
	// nesting a Datagram: the recursive payload codec's usual depth.
	payload := net.last
	var mp meter
	for r := 0; r < probeRounds; r++ {
		var encErr error
		mp.run(100_000, func() {
			for i := 0; i < 100_000; i++ {
				b, err := wire.EncodePayload(payload)
				if err != nil {
					encErr = err
				}
				probeSink += len(b)
			}
		})
		if encErr != nil {
			return fmt.Errorf("wire probe: payload: %w", encErr)
		}
	}
	out["wire.payload_enc_ns"] = mp.ns()
	return nil
}

// probeBind prices route lookups on the 400-VN ring through each table:
// matrix index, cache hit, cache miss (capacity 1, so every lookup walks a
// route and most page a distance field), and a warm shard table.
func probeBind(out map[string]float64) error {
	ringAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(1000), LatencySec: modelnet.Ms(5), QueuePkts: 400}
	accessAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(1), QueuePkts: 100}
	dist, err := distill.Distill(modelnet.Ring(20, 20, ringAttr, accessAttr), distill.Spec{})
	if err != nil {
		return err
	}
	g := dist.Graph
	clients := g.Clients()
	rng := rand.New(rand.NewSource(2))
	type pair struct{ src, dst pipes.VN }
	pairs := make([]pair, 4096)
	for i := range pairs {
		pairs[i] = pair{pipes.VN(rng.Intn(len(clients))), pipes.VN(rng.Intn(len(clients)))}
	}
	lookups := func(t bind.Table, n int) *meter {
		var m meter
		for r := 0; r < probeRounds; r++ {
			m.run(n, func() {
				for i := 0; i < n; i++ {
					p := pairs[i&4095]
					route, _ := t.Lookup(p.src, p.dst)
					probeSink += len(route)
				}
			})
		}
		return &m
	}
	matrix, err := bind.BuildMatrix(g, clients)
	if err != nil {
		return err
	}
	out["bind.matrix_lookup_ns"] = lookups(matrix, 1_000_000).ns()
	hot := bind.NewCache(g, clients, 1<<20)
	lookups(hot, 4096)
	out["bind.cache_hit_ns"] = lookups(hot, 1_000_000).ns()
	out["bind.cache_miss_ns"] = lookups(bind.NewCache(g, clients, 1), 2000).ns()

	asn, err := assign.KClusters(g, shards, 1)
	if err != nil {
		return err
	}
	views, err := bind.BuildShardViews(g, asn.Owner, asn.NodeOwner, asn.Cores)
	if err != nil {
		return err
	}
	oracle := bind.NewSummaryOracle(g, func(int32) ([]topology.LinkID, error) { return nil, nil }, 0, 0)
	table, err := bind.NewShardTable(g, views[0], clients, oracle.SeedFuncFor(views[0].Summary), 0)
	if err != nil {
		return err
	}
	// A shard table resolves only sources homed on its shard.
	var local []pipes.VN
	for v, node := range clients {
		if outs := g.Out(node); len(outs) > 0 && asn.Owner[outs[0]] == 0 {
			local = append(local, pipes.VN(v))
		}
	}
	if len(local) == 0 {
		return fmt.Errorf("bind probe: shard 0 homes no VN")
	}
	for i := range pairs {
		pairs[i].src = local[i%len(local)]
	}
	lookups(table, 4096)
	out["bind.shardtable_lookup_ns"] = lookups(table, 500_000).ns()
	return nil
}

// shardRig is a hand-built 2-shard ring: what parcore.New assembles, with
// the outboxes and appliers in the probe's hands.
type shardRig struct {
	sched  [shards]*vtime.Scheduler
	emu    [shards]*emucore.Emulator
	outbox [shards]*parcore.Outbox
	app    [shards]*parcore.Applier
	syncs  []parcore.ShardSync
	homes  []int
}

func newShardRig() (*shardRig, error) {
	ringAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(1000), LatencySec: modelnet.Ms(5), QueuePkts: 400}
	accessAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(100), LatencySec: modelnet.Ms(1), QueuePkts: 400}
	g := modelnet.Ring(8, 16, ringAttr, accessAttr)
	asn, err := assign.KClusters(g, shards, 1)
	if err != nil {
		return nil, err
	}
	b, err := bind.Bind(g, bind.Options{Cores: shards})
	if err != nil {
		return nil, err
	}
	pod := asn.POD()
	rig := &shardRig{homes: parcore.Homes(g, b, pod, shards)}
	for i := 0; i < shards; i++ {
		rig.sched[i] = vtime.NewScheduler()
		rig.outbox[i] = parcore.NewOutbox(i, shards, rig.sched[i])
		rig.emu[i], err = emucore.NewShard(rig.sched[i], g, b, pod, emucore.IdealProfile(), 1, i, rig.homes, rig.outbox[i].Handoff)
		if err != nil {
			return nil, err
		}
		rig.app[i] = parcore.NewApplier(rig.sched[i], rig.emu[i])
	}
	rig.syncs = parcore.ComputeSyncPlan(g, b, pod, rig.homes, shards, nil)
	return rig, nil
}

// capture is a parcore.Sender that keeps what an outbox flushes.
type capture struct{ msgs []parcore.Msg }

func (c *capture) Send(_ int, msgs []parcore.Msg) error {
	c.msgs = append(c.msgs, msgs...)
	return nil
}

// crossMsgs has every shard-0 VN send burst packets to a shard-1 VN and runs
// shard 0 to quiescence, returning the genuine cross-shard messages its
// emulator handed off.
func (r *shardRig) crossMsgs(burst int) ([]parcore.Msg, error) {
	var from, to []pipes.VN
	for v, h := range r.homes {
		if h == 0 {
			from = append(from, pipes.VN(v))
		} else {
			to = append(to, pipes.VN(v))
		}
	}
	if len(from) == 0 || len(to) == 0 {
		return nil, fmt.Errorf("parcore probe: partition homes %d and %d VNs", len(from), len(to))
	}
	for k := 0; k < burst; k++ {
		for i, src := range from {
			r.emu[0].Inject(src, to[(i+k)%len(to)], 1000, nil)
		}
	}
	r.sched[0].Run()
	var c capture
	if err := r.outbox[0].Flush(&c); err != nil {
		return nil, err
	}
	if len(c.msgs) == 0 {
		return nil, fmt.Errorf("parcore probe: no cross-shard messages")
	}
	return c.msgs, nil
}

// probeParcoreWire prices the cross-shard path on genuine messages: outbox
// handoff + flush on the sending side, the wire batch codec in between,
// Applier.Apply and the bucket activations (TunnelIn) on the receiving side,
// and ShardBounds over the shard those messages loaded.
func probeParcoreWire(out map[string]float64) error {
	var mh, ma, mb, me, md, ms meter
	var bytesPerMsg float64
	for r := 0; r < probeRounds; r++ {
		rig, err := newShardRig()
		if err != nil {
			return err
		}
		msgs, err := rig.crossMsgs(40)
		if err != nil {
			return err
		}
		n := len(msgs)

		// Sending side: re-hand the same descriptors to a scratch outbox.
		scratch := parcore.NewOutbox(0, shards, rig.sched[0])
		var sink capture
		mh.run(n, func() {
			for i, m := range msgs {
				scratch.Handoff(1, m.Pkt, m.Pid, m.At, m.Lag)
				if i&63 == 63 {
					_ = scratch.Flush(&sink) // capture.Send cannot fail
					sink.msgs = sink.msgs[:0]
				}
			}
		})

		// Wire: 64-message batches, encoded and decoded as the data plane does.
		var bodies [][]byte
		var encErr error
		me.run(n, func() {
			for lo := 0; lo < n; lo += 64 {
				hi := min(lo+64, n)
				elems := make([][]byte, 0, hi-lo)
				for _, m := range msgs[lo:hi] {
					pw, err := wire.EncodePacket(m.Pkt)
					if err != nil {
						encErr = err
						return
					}
					elems = append(elems, wire.DataMsg{
						Seq: m.Seq, Kind: wire.KindTunnel, Pid: int32(m.Pid),
						At: int64(m.At), Lag: int64(m.Lag), Fire: int64(m.Fire), Pkt: pw,
					}.Encode())
				}
				bodies = append(bodies, wire.EncodeDataBatch(0, uint64(lo)+1, uint64(hi), elems))
			}
		})
		if encErr != nil {
			return fmt.Errorf("wire probe: %w", encErr)
		}
		total := 0
		for _, b := range bodies {
			total += len(b)
		}
		bytesPerMsg = float64(total) / float64(n)
		var decErr error
		md.run(n, func() {
			for _, body := range bodies {
				batch, err := wire.DecodeDataBatch(body)
				if err != nil {
					decErr = err
					return
				}
				for i := range batch.Msgs {
					pkt, err := batch.Msgs[i].Pkt.Packet()
					if err != nil {
						decErr = err
						return
					}
					probeSink += pkt.Size
				}
			}
		})
		if decErr != nil {
			return fmt.Errorf("wire probe: %w", decErr)
		}

		// Receiving side.
		last := vtime.Time(0)
		for _, m := range msgs {
			last = max(last, m.Fire)
		}
		var applyErr error
		ma.run(n, func() {
			for lo := 0; lo < n; lo += 64 {
				if err := rig.app[1].Apply(msgs[lo:min(lo+64, n)]); err != nil {
					applyErr = err
					return
				}
			}
			rig.sched[1].RunUntil(last)
		})
		if applyErr != nil {
			return fmt.Errorf("parcore probe: %w", applyErr)
		}
		mb.run(200, func() {
			for i := 0; i < 200; i++ {
				b := parcore.ShardBounds(rig.sched[1], rig.emu[1], rig.syncs[1], rig.app[1])
				probeSink += len(b.SafeTo)
			}
		})
		rig.sched[1].Run()
		if t := rig.emu[1].Totals(); t.Delivered != uint64(n) {
			return fmt.Errorf("parcore probe: shard 1 delivered %d of %d applied messages", t.Delivered, n)
		}
	}
	out["parcore.outbox_handoff_ns"] = mh.ns()
	out["parcore.apply_ns_per_msg"] = ma.ns()
	out["parcore.apply_allocs_per_msg"] = ma.allocs()
	out["parcore.bounds_ns"] = mb.ns()
	out["wire.batch_enc_ns_per_msg"] = me.ns()
	out["wire.batch_dec_ns_per_msg"] = md.ns()
	out["wire.batch_allocs_per_msg"] = me.allocs() + md.allocs()
	out["wire.bytes_per_msg"] = bytesPerMsg

	// One fused barrier step's control frames, both directions.
	step := wire.Step{Floor: 1, Grant: 123456789, Expect: []uint64{10, 20}}
	done := wire.StepDone{Counts: wire.Counts{}, Next: 1, Safe: 2, SafeTo: []int64{3, 4}}
	for r := 0; r < probeRounds; r++ {
		var err error
		ms.run(200_000, func() {
			for i := 0; i < 200_000; i++ {
				var s wire.Step
				var d wire.StepDone
				if s, err = wire.DecodeStep(step.Encode()); err != nil {
					return
				}
				if d, err = wire.DecodeStepDone(done.Encode()); err != nil {
					return
				}
				probeSink += len(s.Expect) + len(d.SafeTo)
			}
		})
		if err != nil {
			return fmt.Errorf("wire probe: step codec: %w", err)
		}
	}
	out["wire.step_codec_ns"] = ms.ns()
	return nil
}

// probeObs prices one recorded trace event on an enabled tracer.
func probeObs(out map[string]float64) error {
	pkt := &pipes.Packet{Src: 1, Dst: 2, Size: 1000, Trace: 7}
	var m meter
	for r := 0; r < probeRounds; r++ {
		t := obs.NewTracer(0)
		m.run(1_000_000, func() {
			for i := 0; i < 1_000_000; i++ {
				t.PipeEnqueue(vtime.Time(i), 3, pkt)
			}
		})
		probeSink += t.Len()
	}
	out["obs.trace_event_ns"] = m.ns()
	return nil
}

// median returns the middle of xs (mean of the middle two when even); 0 for
// an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
