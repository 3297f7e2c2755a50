package emucore

import (
	"fmt"

	"modelnet/internal/bind"
	"modelnet/internal/obs"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// DeliverFunc receives a packet at its destination VN. It is an alias, so
// *Emulator is a netstack.Registrar as it stands.
type DeliverFunc = func(pkt *pipes.Packet)

// HandoffFunc carries a cross-shard event out of a shard-mode emulator (see
// NewShard). pid >= 0 asks the owning shard to enqueue pkt into pipe pid at
// time at (a §2.2 core-to-core tunnel); pid < 0 asks the destination VN's
// home shard to complete delivery of pkt, where at is the delivery time and
// lag the accumulated quantization error.
type HandoffFunc func(target int, pkt *pipes.Packet, pid pipes.ID, at vtime.Time, lag vtime.Duration)

// Emulator is a cluster of core routers emulating one distilled topology.
// All state is driven by a single vtime.Scheduler; the emulator is not safe
// for concurrent use.
//
// In the default (sequential) mode one Emulator owns every pipe and core
// struct. In shard mode (NewShard) the Emulator is one core router of a
// parallel cluster: it owns only the pipes the POD assigns to its shard
// index, runs on its own scheduler, and emits HandoffFunc events when a
// packet's next pipe — or destination VN — lives on a peer shard. The
// parallel runtime (internal/parcore) routes those events between shards.
type Emulator struct {
	sched   *vtime.Scheduler
	prof    Profile
	binding *bind.Binding
	pod     *bind.POD

	// pipes is indexed by pipe ID; a live slot points into one slab of the
	// materialized pipes, a foreign one (shard mode) is nil.
	pipes []*pipes.Pipe
	cores []*core

	// deliver is indexed by VN (dense IDs; grown on registration) — the
	// delivery path runs once per packet, so it must not pay a map lookup.
	deliver []DeliverFunc
	seq     uint64

	// pool recycles packet descriptors at delivery and drop; every
	// injection (and eager-mode handoff copy) draws from it.
	pool pipes.PacketPool

	// Deferred core re-arming for batch application (see BatchApply).
	applyDepth int
	dirty      []*core

	// Shard mode (see NewShard); shard is -1 in sequential mode.
	shard   int
	homes   []int // VN -> home shard, nil in sequential mode
	handoff HandoffFunc
	eager   bool // pre-emit handoffs at enqueue time (ideal profile only)

	// materialized counts live pipe slots (NumPipes in sequential mode, the
	// owned pipes in shard mode).
	materialized int
	// epoch counts the reroutes, which is the route Cache's epoch; every
	// packet injected is pinned to it.
	epoch int32

	// Global counters.
	Injected  uint64 // packets offered to the core cluster
	Delivered uint64 // packets handed to destination VNs
	NoRoute   uint64 // injections with no route
	Accuracy  Accuracy
	DropHook  func(pkt *pipes.Packet, where string) // optional debug hook
	// OnDeliver, when set, observes every completed delivery with its
	// delivery time (before the VN callback runs). In parallel mode the
	// hook is installed per shard and may be invoked concurrently across
	// shards; implementations must be safe for that.
	OnDeliver func(pkt *pipes.Packet, at vtime.Time)
	// Trace, when non-nil, records virtual-time packet events (internal/obs).
	// Set it before the workload is installed; every hook is nil-safe, so a
	// disabled trace costs one branch per event. Dynamics engines attached
	// to this emulator record their steps through it too.
	Trace *obs.Tracer
}

// core is one emulated core router: a pipe heap plus CPU/NIC occupancy.
type core struct {
	heap *pipes.Heap

	cpuBusyUntil vtime.Time
	rxBusyUntil  vtime.Time
	txBusyUntil  vtime.Time

	pendingAt vtime.Time
	pendingID vtime.EventID
	run       func() // e.runCore(c), built once: the core re-arms every hop
	dirtyArm  bool   // re-arm deferred to the end of the current BatchApply

	// Stats.
	PktsIn        uint64
	PhysDropsCPU  uint64
	PhysDropsNIC  uint64
	PhysDropsTx   uint64
	TunnelsIn     uint64
	TunnelsOut    uint64
	TunnelTxBytes uint64
	CPUWork       vtime.Duration // total emulation CPU time consumed
	RxBytes       uint64
	TxBytes       uint64
}

// New builds an emulator over a distilled topology. The binding supplies
// the routing table and VN→edge→core mapping; pod assigns pipes to cores
// (nil means a single core owns everything). seed determinizes pipe loss.
func New(sched *vtime.Scheduler, g *topology.Graph, b *bind.Binding, pod *bind.POD, prof Profile, seed int64) (*Emulator, error) {
	return newEmulator(sched, g, b, pod, prof, seed, -1)
}

// newEmulator is the shared constructor. shard -1 materializes every pipe;
// a shard index materializes only the pipes pod assigns to it, and the
// other slots stay nil and must never be touched by the hot path.
func newEmulator(sched *vtime.Scheduler, g *topology.Graph, b *bind.Binding, pod *bind.POD, prof Profile, seed int64, shard int) (*Emulator, error) {
	if pod == nil {
		pod = bind.NewPOD(make([]int, g.NumLinks()), 1)
	}
	nCores := pod.Cores()
	if nCores < 1 {
		return nil, fmt.Errorf("emucore: POD has %d cores", nCores)
	}
	if shard >= nCores {
		return nil, fmt.Errorf("emucore: shard %d out of range [0,%d)", shard, nCores)
	}
	e := &Emulator{
		sched:   sched,
		prof:    prof,
		binding: b,
		pod:     pod,
		deliver: make([]DeliverFunc, b.NumVNs()),
		shard:   shard,
	}
	// A foreign owner (or -1, a pipe outside a federated shard's view)
	// leaves the slot empty.
	owned := func(i int) bool { return shard < 0 || pod.Owner(pipes.ID(i))%nCores == shard }
	for i := range g.Links {
		if owned(i) {
			e.materialized++
		}
	}
	// The owned pipes live in one slab, in ID order; the slots point into it.
	slab := make([]pipes.Pipe, e.materialized)
	e.pipes = make([]*pipes.Pipe, g.NumLinks())
	for i, l := range g.Links {
		if !owned(i) {
			continue
		}
		// Pipe state is a pure function of (id, seed), so a pipe behaves
		// bit-identically whichever emulator materializes it.
		p := &slab[0]
		slab = slab[1:]
		p.Init(pipes.ID(i), pipeParams(l.Attr), seed)
		e.pipes[i] = p
	}
	e.cores = make([]*core, nCores)
	for i := range e.cores {
		c := &core{heap: pipes.NewHeap(), pendingAt: vtime.Forever}
		c.run = func() { e.runCore(c) }
		e.cores[i] = c
	}
	return e, nil
}

// NewShard builds the shard-mode emulator for one core of a parallel or
// federated cluster: it processes injections and deliveries for the VNs
// whose home shard (per homes) is shard, materializes and emulates only the
// pipes the POD assigns to shard — O(shard) pipe memory, not O(world) — and
// forwards everything else through handoff. The graph may be a skeleton
// (topology.NewSkeleton) whose foreign slots are placeholders. The hot path
// never touches a foreign pipe: enqueue hands a packet off before admission
// when its next pipe is foreign, so a nil pipe slot being reached is a
// routing bug and panics rather than degrading silently.
//
// Under an ideal profile (no tick, no CPU/NIC model) the shard runs in
// "eager" mode: a pipe's exit time is fixed the moment the packet is
// enqueued, so cross-shard handoffs are emitted at enqueue time, timestamped
// with the future exit. That gives the parallel runtime a full pipe latency
// of lookahead per crossing instead of being throttled by the actual
// cross-traffic event rate. With a resource model the tunnel-tx admission
// decision depends on core state at exit time, so handoffs are emitted
// lazily when the exit is processed.
func NewShard(sched *vtime.Scheduler, g *topology.Graph, b *bind.Binding, pod *bind.POD, prof Profile, seed int64, shard int, homes []int, handoff HandoffFunc) (*Emulator, error) {
	if shard < 0 {
		return nil, fmt.Errorf("emucore: shard %d out of range", shard)
	}
	if handoff == nil {
		return nil, fmt.Errorf("emucore: shard mode requires a handoff func")
	}
	if len(homes) < b.NumVNs() {
		return nil, fmt.Errorf("emucore: homes covers %d of %d VNs", len(homes), b.NumVNs())
	}
	e, err := newEmulator(sched, g, b, pod, prof, seed, shard)
	if err != nil {
		return nil, err
	}
	e.homes = homes
	e.handoff = handoff
	e.eager = prof.ideal()
	return e, nil
}

// MaterializedPipes reports how many pipe slots hold live pipes — NumPipes
// in sequential mode, the shard's owned pipes in shard mode: the per-shard
// memory figure the scalability claim is about.
func (e *Emulator) MaterializedPipes() int { return e.materialized }

// Shard reports the shard index, or -1 for a sequential emulator.
func (e *Emulator) Shard() int { return e.shard }

// Eager reports whether the shard emits handoffs at enqueue time (see
// NewShard); always false in sequential mode.
func (e *Emulator) Eager() bool { return e.eager }

func pipeParams(a topology.LinkAttrs) pipes.Params {
	return pipes.Params{
		BandwidthBps: a.BandwidthBps,
		Latency:      vtime.DurationOf(a.LatencySec),
		LossRate:     a.LossRate,
		QueuePkts:    a.QueuePkts,
	}
}

// Binding returns the binding this emulator was built with.
func (e *Emulator) Binding() *bind.Binding { return e.binding }

// Cores reports the number of core routers.
func (e *Emulator) Cores() int { return len(e.cores) }

// Pipe returns the live pipe for a distilled link, for inspection or
// dynamic re-parameterization (§4.3). A shard-mode emulator (NewShard)
// holds only its owned pipes; every other slot returns nil.
func (e *Emulator) Pipe(id pipes.ID) *pipes.Pipe { return e.pipes[id] }

// NumPipes reports the number of pipes.
func (e *Emulator) NumPipes() int { return len(e.pipes) }

// ScanMaterialized visits every live pipe in ID order — the canonical
// iteration order checkpoint serialization depends on. A shard's foreign
// slots are skipped.
func (e *Emulator) ScanMaterialized(visit func(p *pipes.Pipe)) {
	for _, p := range e.pipes {
		if p != nil {
			visit(p)
		}
	}
}

// SetPipeParams changes a pipe's parameters mid-run (cross traffic, fault
// injection). In-flight packets are unaffected.
func (e *Emulator) SetPipeParams(id pipes.ID, p pipes.Params) {
	e.pipes[id].SetParams(p)
}

// SetTable replaces the routing table (e.g., after recomputing shortest
// paths around a failed link).
func (e *Emulator) SetTable(t bind.Table) { e.binding.Table = t }

// Reroute moves the route table to its next epoch, with the given links
// failed (none heals them all): the run's route Cache (each shard owns its
// own) is rerouted in place and stays within its capacity. Packets already
// injected keep the routes and the epoch they carry. A table installed with
// SetTable is not rerouted here: a distance-vector table learns of failures
// through its own protocol.
func (e *Emulator) Reroute(down []topology.LinkID) {
	e.binding.Table.(*bind.Cache).Reroute(down)
	e.epoch++
}

// RegisterVN installs the delivery callback for a VN. Packets destined to
// an unregistered VN are counted delivered and discarded.
func (e *Emulator) RegisterVN(vn pipes.VN, fn DeliverFunc) {
	for int(vn) >= len(e.deliver) {
		e.deliver = append(e.deliver, nil)
	}
	e.deliver[vn] = fn
}

// coreOfVN returns the core the given VN's edge node forwards through.
func (e *Emulator) coreOfVN(vn pipes.VN) *core {
	edge := e.binding.EdgeOf[vn]
	return e.cores[e.binding.CoreOf[edge]%len(e.cores)]
}

// CoreStats exposes a core's counters (index 0..Cores-1).
func (e *Emulator) CoreStats(i int) CoreStats {
	c := e.cores[i]
	return CoreStats{
		PktsIn:        c.PktsIn,
		PhysDropsCPU:  c.PhysDropsCPU,
		PhysDropsNIC:  c.PhysDropsNIC,
		PhysDropsTx:   c.PhysDropsTx,
		TunnelsIn:     c.TunnelsIn,
		TunnelsOut:    c.TunnelsOut,
		TunnelTxBytes: c.TunnelTxBytes,
		CPUWork:       c.CPUWork,
		RxBytes:       c.RxBytes,
		TxBytes:       c.TxBytes,
	}
}

// CoreStats is a snapshot of one core's counters.
type CoreStats struct {
	PktsIn        uint64
	PhysDropsCPU  uint64
	PhysDropsNIC  uint64
	PhysDropsTx   uint64
	TunnelsIn     uint64
	TunnelsOut    uint64
	TunnelTxBytes uint64
	CPUWork       vtime.Duration
	RxBytes       uint64
	TxBytes       uint64
}

// Totals aggregates conservation counters: every injected packet is
// eventually delivered, physically dropped, or virtually dropped in a pipe
// (or still in flight).
type Totals struct {
	Injected     uint64
	Delivered    uint64
	NoRoute      uint64
	PhysDrops    uint64
	VirtualDrops uint64
	InFlight     int
}

// Add folds another emulator's counters into t (the shards of one run).
func (t *Totals) Add(u Totals) {
	t.Injected += u.Injected
	t.Delivered += u.Delivered
	t.NoRoute += u.NoRoute
	t.PhysDrops += u.PhysDrops
	t.VirtualDrops += u.VirtualDrops
	t.InFlight += u.InFlight
}

// PipeDrops returns the per-pipe drop counts, indexed by pipe ID over the
// whole world; a shard's foreign pipes read 0, so its shards' vectors sum
// elementwise to the run's.
func (e *Emulator) PipeDrops() []uint64 {
	out := make([]uint64, len(e.pipes))
	for i, p := range e.pipes {
		if p != nil {
			out[i] = p.TotalDrops()
		}
	}
	return out
}

// DropsByReason sums the per-reason virtual drop counters over every pipe
// (the unified pipes.DropReason taxonomy, indexable by reason), folding
// route-lookup rejections into the DropUnreachable slot. Gateway-side
// reasons (oversize, gateway-reject) are counted by the live edge and
// merged at the report layer.
func (e *Emulator) DropsByReason() []uint64 {
	out := make([]uint64, pipes.NumDropReasons)
	for _, p := range e.pipes {
		if p == nil {
			continue // a foreign pipe of a shard
		}
		for r, n := range p.Drops {
			out[r] += n
		}
	}
	out[pipes.DropUnreachable] += e.NoRoute
	return out
}

// Totals returns the current conservation counters.
func (e *Emulator) Totals() Totals {
	t := Totals{Injected: e.Injected, Delivered: e.Delivered, NoRoute: e.NoRoute}
	for _, c := range e.cores {
		t.PhysDrops += c.PhysDropsCPU + c.PhysDropsNIC + c.PhysDropsTx
	}
	for _, p := range e.pipes {
		if p == nil {
			continue // a foreign pipe of a shard
		}
		t.VirtualDrops += p.TotalDrops()
		t.InFlight += p.Len()
	}
	return t
}

// Inject offers a packet from src's edge node to the core cluster. It
// reports whether the packet was accepted (false = physical drop or no
// route). Virtual (emulated) drops inside pipes are invisible here, as they
// are to real senders.
func (e *Emulator) Inject(src, dst pipes.VN, size int, payload any) bool {
	route, ok := e.binding.Table.Lookup(src, dst)
	if !ok {
		e.NoRoute++
		e.Trace.Unreachable(e.sched.Now(), src, dst, size, e.Trace.NextTID(src))
		return false
	}
	now := e.sched.Now()
	c := e.cores[0]
	if e.shard >= 0 {
		// Shard mode: the runtime homes each VN on the shard owning its
		// access pipes, so ingress always charges this shard's core.
		c = e.cores[e.shard]
	} else if len(e.cores) > 1 {
		c = e.coreOfVN(src)
	}

	// The trace ID is minted before physical admission: the routed-injection
	// sequence per source VN is identical in every execution mode, while
	// admission outcomes are per-core wall effects.
	tid := e.Trace.NextTID(src)

	// Physical admission: NIC receive ring, then CPU (interrupt handling
	// is starved when the emulation runs behind).
	if !c.admitRx(e, now, size) {
		c.PhysDropsNIC++
		e.Trace.PhysDrop(now, obs.PhysNICRx, tid, src, dst, size)
		e.dropHook(nil, "nic-rx")
		return false
	}
	if !c.admitCPU(e, now, e.prof.CPU.PerPacket) {
		c.PhysDropsCPU++
		e.Trace.PhysDrop(now, obs.PhysCPU, tid, src, dst, size)
		e.dropHook(nil, "cpu")
		return false
	}
	c.PktsIn++
	e.Injected++
	e.seq++
	// The descriptor is recycled, so every field is assigned — one by one,
	// because a composite literal is built as a temporary and copied over.
	pkt := e.pool.Get()
	pkt.Seq = e.seq | uint64(e.shard+1)<<48
	pkt.Size = size
	pkt.Src, pkt.Dst = src, dst
	pkt.Route, pkt.Hop = route, 0
	pkt.Injected, pkt.Lag = now, 0
	pkt.Epoch = e.epoch
	pkt.Trace = tid
	pkt.Payload = payload
	if len(route) == 0 {
		// Loopback: no pipes to traverse. Deliver asynchronously so the
		// sender's call stack never reenters its own receive path. The
		// delivery's consequences run on dst's host and nowhere else, so the
		// event carries dst's owner claim — an untagged loopback would pin
		// the shard's adaptive horizon to the frontier minimum.
		e.sched.AtTagged(now, int32(dst), func() { e.finish(c, pkt, now, now) })
		return true
	}
	e.enqueue(c, pkt, route[0], now)
	return true
}

// enqueue places pkt into pipe pid at logical time at, tunneling first if
// the pipe's owner differs from the current core. In shard mode a tunnel to
// a pipe owned by a peer shard performs only the sender-side accounting and
// emits a handoff; the owning shard finishes admission in TunnelIn.
func (e *Emulator) enqueue(cur *core, pkt *pipes.Packet, pid pipes.ID, at vtime.Time) {
	ownerIdx := e.pod.Owner(pid) % len(e.cores)
	owner := e.cores[ownerIdx]
	now := e.sched.Now()
	if owner != cur {
		// Cross-core transition (§3.3): descriptor (or full packet)
		// tunneled over the physical cluster network.
		wire := e.wireSize(pkt)
		cur.forceCPU(e, now, e.prof.CPU.TunnelTx)
		if !cur.admitTx(e, now, wire) {
			cur.PhysDropsTx++
			e.Trace.PhysDrop(now, obs.PhysTunnelTx, pkt.Trace, pkt.Src, pkt.Dst, pkt.Size)
			e.dropHook(pkt, "tunnel-tx")
			e.pool.Put(pkt)
			return
		}
		cur.TunnelsOut++
		cur.TunnelTxBytes += uint64(wire)
		if e.shard >= 0 && ownerIdx != e.shard {
			e.Trace.Handoff(at, ownerIdx, pid, pkt)
			e.handoff(ownerIdx, pkt, pid, at, 0)
			return
		}
		if !owner.admitRx(e, now, wire) {
			owner.PhysDropsNIC++
			e.Trace.PhysDrop(now, obs.PhysTunnelRx, pkt.Trace, pkt.Src, pkt.Dst, pkt.Size)
			e.dropHook(pkt, "tunnel-rx")
			e.pool.Put(pkt)
			return
		}
		if !owner.admitCPU(e, now, e.prof.CPU.TunnelRx) {
			owner.PhysDropsCPU++
			e.Trace.PhysDrop(now, obs.PhysTunnelCPU, pkt.Trace, pkt.Src, pkt.Dst, pkt.Size)
			e.dropHook(pkt, "tunnel-cpu")
			e.pool.Put(pkt)
			return
		}
		owner.TunnelsIn++
	}
	e.localEnqueue(owner, pkt, pid, at)
}

// wireSize is the byte count a tunneled packet occupies on the physical
// cluster network (§2.2 payload caching tunnels descriptors only).
func (e *Emulator) wireSize(pkt *pipes.Packet) int {
	if e.prof.PayloadCaching && e.prof.DescriptorBytes > 0 {
		return e.prof.DescriptorBytes
	}
	return pkt.Size
}

// localEnqueue inserts pkt into owned pipe pid at time at and rearms the
// core. In eager shard mode the pipe's exit time — fixed here, at enqueue —
// is used to pre-emit any cross-shard handoff the exit will cause, giving
// the parallel runtime a pipe latency of lookahead.
func (e *Emulator) localEnqueue(c *core, pkt *pipes.Packet, pid pipes.ID, at vtime.Time) {
	reason, exit := e.pipes[pid].Enqueue(pkt, at)
	if reason != pipes.DropNone {
		e.Trace.PipeDrop(at, pid, pkt, reason)
		if e.DropHook != nil {
			e.DropHook(pkt, "pipe-"+reason.String())
		}
		e.pool.Put(pkt)
		return
	}
	e.Trace.PipeEnqueue(at, pid, pkt)
	c.heap.Update(e.pipes[pid])
	e.scheduleCore(c)
	if e.eager {
		e.preEmit(c, pkt, exit)
	}
}

// preEmit sends the cross-shard handoff a packet's exit from its current
// pipe will cause, timestamped with the (already exact) future exit time.
// The peer shard receives a private copy; the original stays in the local
// pipe purely to occupy queue slots and transmission time, and its exit is
// ignored by advance. Only valid in eager mode, where admission paths are
// no-ops and the exit-time decisions are therefore known at enqueue time.
func (e *Emulator) preEmit(c *core, pkt *pipes.Packet, exit vtime.Time) {
	next := pkt.Hop + 1
	if next < len(pkt.Route) {
		npid := pkt.Route[next]
		tgt := e.pod.Owner(npid) % len(e.cores)
		if tgt == e.shard {
			return
		}
		cp := e.pool.Get()
		*cp = *pkt
		cp.Hop = next
		c.TunnelsOut++
		c.TunnelTxBytes += uint64(e.wireSize(pkt))
		e.Trace.Handoff(exit, tgt, npid, cp)
		e.handoff(tgt, cp, npid, exit, 0)
		return
	}
	if home := e.homes[pkt.Dst]; home != e.shard {
		// Final hop lands on a peer shard's VN: hand the delivery over.
		// Lag is zero by construction (eager mode has no quantization).
		cp := e.pool.Get()
		*cp = *pkt
		e.Trace.Handoff(exit, home, -1, cp)
		e.handoff(home, cp, -1, exit, 0)
	}
}

// TunnelIn accepts a packet handed off by a peer shard: the receive half of
// the core-to-core tunnel (admission, then pipe entry). pid must be owned
// by this shard. Called by the parallel runtime at the handoff's fire time.
func (e *Emulator) TunnelIn(pkt *pipes.Packet, pid pipes.ID, at vtime.Time) {
	c := e.cores[e.shard]
	now := e.sched.Now()
	wire := e.wireSize(pkt)
	if !c.admitRx(e, now, wire) {
		c.PhysDropsNIC++
		e.Trace.PhysDrop(now, obs.PhysTunnelRx, pkt.Trace, pkt.Src, pkt.Dst, pkt.Size)
		e.dropHook(pkt, "tunnel-rx")
		e.pool.Put(pkt)
		return
	}
	if !c.admitCPU(e, now, e.prof.CPU.TunnelRx) {
		c.PhysDropsCPU++
		e.Trace.PhysDrop(now, obs.PhysTunnelCPU, pkt.Trace, pkt.Src, pkt.Dst, pkt.Size)
		e.dropHook(pkt, "tunnel-cpu")
		e.pool.Put(pkt)
		return
	}
	c.TunnelsIn++
	e.localEnqueue(c, pkt, pid, at)
}

// runCore is one scheduler activation for a core: drain every pipe whose
// deadline has arrived, move packets along their routes, reinsert pipes
// with their new deadlines (the §2.2 scheduler loop).
func (e *Emulator) runCore(c *core) {
	now := e.sched.Now()
	c.pendingAt = vtime.Forever
	for p := c.heap.PopNext(now); p != nil; p = c.heap.PopNext(now) {
		for pkt, exactExit := p.DequeueNext(now); pkt != nil; pkt, exactExit = p.DequeueNext(now) {
			e.advance(c, pkt, exactExit, now)
		}
		c.heap.Update(p)
	}
	e.scheduleCore(c)
}

// advance moves a packet that just exited a pipe to its next pipe or its
// destination. In eager shard mode, exits whose consequence lives on a peer
// shard were already pre-emitted at enqueue time (see preEmit) and are
// ignored here.
func (e *Emulator) advance(c *core, pkt *pipes.Packet, exactExit, now vtime.Time) {
	e.Trace.PipeDequeue(exactExit, pkt.Route[pkt.Hop], pkt)
	c.forceCPU(e, now, e.prof.CPU.PerHop)
	pkt.Hop++
	if pkt.Hop < len(pkt.Route) {
		if e.eager && e.pod.Owner(pkt.Route[pkt.Hop])%len(e.cores) != e.shard {
			e.pool.Put(pkt) // a copy crossed at enqueue time
			return
		}
		at := now
		if e.prof.DebtHandling {
			// Packet debt: enter the next pipe at the exact exit time of
			// the previous one, canceling accumulated quantization error.
			at = exactExit
		} else {
			pkt.Lag += now.Sub(exactExit)
		}
		e.enqueue(c, pkt, pkt.Route[pkt.Hop], at)
		return
	}
	if e.eager && e.homes[pkt.Dst] != e.shard {
		e.pool.Put(pkt) // the delivery copy crossed at enqueue time
		return
	}
	e.finish(c, pkt, exactExit, now)
}

// finish delivers a packet to its destination VN's edge node, handing off
// to the VN's home shard when it lives elsewhere.
func (e *Emulator) finish(c *core, pkt *pipes.Packet, exactExit, now vtime.Time) {
	if !c.admitTx(e, now, pkt.Size) {
		c.PhysDropsTx++
		e.Trace.PhysDrop(now, obs.PhysEdgeTx, pkt.Trace, pkt.Src, pkt.Dst, pkt.Size)
		e.dropHook(pkt, "edge-tx")
		e.pool.Put(pkt)
		return
	}
	lag := pkt.Lag + now.Sub(exactExit)
	if e.shard >= 0 && e.homes[pkt.Dst] != e.shard {
		e.Trace.Handoff(now, e.homes[pkt.Dst], -1, pkt)
		e.handoff(e.homes[pkt.Dst], pkt, -1, now, lag)
		return
	}
	e.CompleteDelivery(pkt, lag, now)
}

// CompleteDelivery finishes a delivery on the destination VN's home shard
// (or inline, in sequential mode): counters, accuracy, hooks, VN callback.
// at is the delivery time. The descriptor is recycled when the callbacks
// return: hooks and delivery functions must not retain it.
func (e *Emulator) CompleteDelivery(pkt *pipes.Packet, lag vtime.Duration, at vtime.Time) {
	e.Delivered++
	e.Trace.Deliver(at, pkt)
	e.Accuracy.Record(lag, len(pkt.Route))
	if e.OnDeliver != nil {
		e.OnDeliver(pkt, at)
	}
	if d := int(pkt.Dst); d < len(e.deliver) {
		if fn := e.deliver[d]; fn != nil {
			fn(pkt)
		}
	}
	e.pool.Put(pkt)
}

// BatchApply runs fn with core (re-)arming deferred: every pipe insertion
// inside fn marks its core dirty instead of cancelling and re-scheduling
// the core's activation event, and each dirty core is armed exactly once
// when the outermost BatchApply returns. The parallel runtime wraps each
// deadline cluster of cross-shard messages in it, so applying N tunnel
// entries costs one scheduler arm instead of up to N cancel/insert pairs.
func (e *Emulator) BatchApply(fn func()) {
	e.applyDepth++
	fn()
	e.applyDepth--
	if e.applyDepth > 0 {
		return
	}
	for _, c := range e.dirty {
		c.dirtyArm = false
		e.scheduleCore(c)
	}
	e.dirty = e.dirty[:0]
}

// ReleasePacket returns a descriptor to the emulator's free list. It is for
// transports that serialize a handed-off packet (the federation data
// plane): once the bytes are on the wire the descriptor is dead, and the
// emulator that produced it gets it back. Callers must hold the only
// reference.
func (e *Emulator) ReleasePacket(pkt *pipes.Packet) { e.pool.Put(pkt) }

func (e *Emulator) dropHook(pkt *pipes.Packet, where string) {
	if e.DropHook != nil {
		e.DropHook(pkt, where)
	}
}

// scheduleCore (re)arms the core's next activation at the quantized time of
// its earliest pipe deadline. Inside a BatchApply the re-arm is deferred:
// the core is marked dirty and armed once at the end of the batch.
func (e *Emulator) scheduleCore(c *core) {
	if e.applyDepth > 0 {
		if !c.dirtyArm {
			c.dirtyArm = true
			e.dirty = append(e.dirty, c)
		}
		return
	}
	next := c.heap.Min()
	if next == vtime.Forever {
		if c.pendingAt != vtime.Forever {
			e.sched.Cancel(c.pendingID)
			c.pendingAt = vtime.Forever
		}
		return
	}
	want := e.quantize(next)
	if want == c.pendingAt {
		return
	}
	if c.pendingAt != vtime.Forever {
		e.sched.Cancel(c.pendingID)
	}
	c.pendingAt = want
	c.pendingID = e.sched.At(want, c.run)
}

// quantize rounds a deadline up to the next scheduler tick — the hardware
// timer the paper's core wakes on. Exact when Tick is zero (ideal mode).
func (e *Emulator) quantize(t vtime.Time) vtime.Time {
	tick := vtime.Time(e.prof.Tick)
	if tick <= 0 || t == vtime.Forever {
		return t
	}
	q := (t + tick - 1) / tick * tick
	if q < e.sched.Now() {
		q = e.sched.Now()
	}
	return q
}

// ---- core capacity accounting ----

// admitRx models the NIC receive path: serialization at NICBps with a
// bounded ring. Reports false (physical drop) when the ring is over.
func (c *core) admitRx(e *Emulator, now vtime.Time, size int) bool {
	if e.prof.NICBps <= 0 {
		return true
	}
	d := vtime.Duration(float64(size*8) / e.prof.NICBps * float64(vtime.Second))
	start := now
	if c.rxBusyUntil > start {
		start = c.rxBusyUntil
	}
	if start.Sub(now) > e.prof.nicBacklog() {
		return false
	}
	c.rxBusyUntil = start.Add(d)
	c.RxBytes += uint64(size)
	return true
}

// admitTx models the NIC transmit path.
func (c *core) admitTx(e *Emulator, now vtime.Time, size int) bool {
	if e.prof.NICBps <= 0 {
		return true
	}
	d := vtime.Duration(float64(size*8) / e.prof.NICBps * float64(vtime.Second))
	start := now
	if c.txBusyUntil > start {
		start = c.txBusyUntil
	}
	if start.Sub(now) > e.prof.nicBacklog() {
		return false
	}
	c.txBusyUntil = start.Add(d)
	c.TxBytes += uint64(size)
	return true
}

// admitCPU charges ingress CPU work, refusing when the emulation has run
// ahead of real time by more than the backlog bound (the paper's "NIC drops
// additional packets beyond this point").
func (c *core) admitCPU(e *Emulator, now vtime.Time, d vtime.Duration) bool {
	if d <= 0 {
		return true
	}
	start := now
	if c.cpuBusyUntil > start {
		start = c.cpuBusyUntil
	}
	if start.Sub(now) > e.prof.cpuBacklog() {
		return false
	}
	c.cpuBusyUntil = start.Add(d)
	c.CPUWork += d
	return true
}

// forceCPU charges mandatory emulation work (it runs at the highest
// priority and is never shed; overload manifests as ingress drops instead).
func (c *core) forceCPU(e *Emulator, now vtime.Time, d vtime.Duration) {
	if d <= 0 {
		return
	}
	start := now
	if c.cpuBusyUntil > start {
		start = c.cpuBusyUntil
	}
	c.cpuBusyUntil = start.Add(d)
	c.CPUWork += d
}

// NextPipeDeadline reports the earliest exact (unquantized) exit deadline
// among this shard's occupied pipes, or vtime.Forever when all are idle.
// The parallel runtime folds this into its safe-advance bound: in lazy
// shard mode a handoff can fire as soon as the earliest border pipe drains.
func (e *Emulator) NextPipeDeadline() vtime.Time {
	if e.shard < 0 {
		return e.cores[0].heap.Min()
	}
	return e.cores[e.shard].heap.Min()
}

// ScanAppEvents visits every pending scheduler event other than the shard's
// own core activation, with its time and owner claim (the VN tag from
// vtime.Scheduler.AtTagged, or vtime.NoTag). Core activations are pipe
// exits — the adaptive horizon bounds those through the occupied-pipe scan —
// so excluding the activation here lets application timers, applied
// cross-shard clusters, and dynamics steps be priced individually: a tagged
// event with the owning VN's crossing distance, an untagged one with the
// shard-wide (injection/frontier) minimum. O(pending).
func (e *Emulator) ScanAppEvents(visit func(at vtime.Time, vn int32)) {
	c := e.cores[0]
	if e.shard >= 0 {
		c = e.cores[e.shard]
	}
	skip := c.pendingID
	hasPending := c.pendingAt != vtime.Forever
	e.sched.ScanPending(func(at vtime.Time, tag int32, id vtime.EventID) {
		if hasPending && id == skip {
			return
		}
		visit(at, tag)
	})
}

// ScanOccupied visits every occupied pipe owned by this shard with its
// exact (unquantized) exit deadline, in unspecified order. O(occupied).
func (e *Emulator) ScanOccupied(visit func(pipes.ID, vtime.Time)) {
	c := e.cores[0]
	if e.shard >= 0 {
		c = e.cores[e.shard]
	}
	c.heap.Scan(visit)
}

// CPUUtilization reports core i's cumulative CPU busy fraction since t0.
func (e *Emulator) CPUUtilization(i int, since vtime.Time) float64 {
	elapsed := e.sched.Now().Sub(since)
	if elapsed <= 0 {
		return 0
	}
	return float64(e.cores[i].CPUWork) / float64(elapsed)
}
