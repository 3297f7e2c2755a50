package parcore

// The conservative synchronization loop, factored out of Runtime so that it
// can drive shards it cannot touch directly. The scheduler algebra is
// transport-oblivious (the LinkEmulator/transport separation): the loop
// below only ever asks the cluster for one barrier round — every shard
// takes Shard.Step, and the bounds come back. Two transports exist: the
// in-process one built into Runtime (shards are goroutines, a batch moves
// between them as a slice) and the socket transport in internal/fednet
// (shards are OS processes, messages move over real UDP/TCP and the round
// is one TCP exchange per worker).
//
// There is one synchronization algebra. Each shard reports, per peer, the
// earliest virtual time a message from its current state could surface there
// — occupied pipes contribute their deadline plus the shortest remaining
// path to that peer's territory, scheduled events contribute their time plus
// the shard's minimum event-to-crossing distance — and the loop closes the
// bounds under chained reactions (a message landing on shard i can provoke a
// message onward to shard j no earlier than its fire time plus i's
// event-to-crossing distance). Jointly idle regions collapse to a single
// window, and a shard far from the action runs far ahead of one adjacent to
// it. The classic uniform window — every shard runs to min over shards of
// (earliest emission time) - 1 — is the same closure on coarser inputs: a
// shard that reports one Safe bound for all its peers, under a reaction
// matrix of zeros.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Msg is one cross-shard event in flight between barriers: either a tunnel
// entry (Pid >= 0: enqueue Pkt into pipe Pid at time At) or a delivery
// completion (Pid < 0: complete Pkt's delivery at At with accumulated lag
// Lag). Fire is the virtual time the event takes effect on the receiving
// shard; (Fire, Sender, Seq) is the canonical barrier order that makes runs
// independent of arrival order.
type Msg struct {
	Pkt    *pipes.Packet
	Pid    pipes.ID
	At     vtime.Time
	Lag    vtime.Duration
	Fire   vtime.Time
	Sender int
	Seq    uint64
}

// Bounds is one shard's contribution to the horizon computation: Next is
// its next local event time, Safe the earliest virtual time at which it
// could emit a cross-shard message from its current state. SafeTo, when the
// shard can compute it (ShardBounds: an eager emulator with a SyncPlan),
// refines Safe per target shard (entry j is the earliest a message from this
// shard's current state could fire on shard j; the self entry is Forever),
// and Safe is then min over SafeTo. A shard without one bounds every peer by
// its Safe.
type Bounds struct {
	Next, Safe vtime.Time
	SafeTo     []vtime.Time
}

// Transport connects the synchronization loop to the cluster's shards,
// hiding whether they are goroutines or processes. Its one verb is the
// barrier round.
type Transport interface {
	// Cores reports the number of shards.
	Cores() int
	// Step runs one barrier round: every shard concurrently takes
	// Shard.Step with its own command — receive and apply the messages the
	// previous round addressed to it, run, flush, report — and the reports
	// come back by shard, Sent and Inflight filled in. Messages flushed in a
	// round are received in a later one, never the same, so rounds are
	// independent of how fast each shard runs.
	Step(cmds []Cmd) ([]Report, error)
}

// DriveOpts selects how the synchronization loop runs.
type DriveOpts struct {
	// Pace, when non-nil, slaves window release to the wall clock: the
	// grants are the unpaced ones, clamped to one quantum past it.
	Pace *Pacing
	// Chain is the k×k matrix of minimum reaction distances: Chain[i][j]
	// lower-bounds how long after a message lands on shard i a consequence
	// of it can surface on shard j. ChainMatrix derives it from the
	// shards' SyncPlans. It prices both the grant closure and the messages
	// still in flight (see settle); nil prices every reaction at zero.
	Chain [][]vtime.Duration
}

// DefaultPaceQuantum is the default real-time pacing window. The paper's
// core wakes on a 10 kHz hardware timer (a 100 µs quantum); the default
// here is coarser because each window costs a full barrier round over the
// control plane — tighten it on fast links if ingress timestamp error
// matters more than barrier overhead.
const DefaultPaceQuantum = vtime.Millisecond

// Pacing slaves window release to the wall clock: virtual nanoseconds map
// one-to-one onto wall nanoseconds since the drive started, and a window
// ending at virtual time B is released only once the wall clock has
// reached B. This is the role the paper's 10 kHz timer plays in the
// in-kernel core — it is what lets real, unmodified processes at the edge
// (internal/edge gateways) exchange live traffic with the emulation, since
// their packets experience emulated delays in actual wall time.
//
// A paced drive does not stop at quiescence: an externally driven run has
// no way to know that more traffic is coming, so it idles forward in
// quantum-sized windows until the (finite) deadline.
type Pacing struct {
	// Quantum bounds how far one window may run ahead of the wall clock;
	// it is also the idle cadence and the ingress timestamp granularity.
	// 0 means DefaultPaceQuantum.
	Quantum vtime.Duration
}

// Drive runs the conservative synchronization loop over the transport until
// every event at or before deadline has fired: agree on window grants from
// the shards' bounds, run one barrier round (every shard applies what it
// was sent, runs below its grant, flushes, reports new bounds), repeat.
// With deadline == vtime.Forever it returns at global quiescence without
// the final clock-advancing window; a paced drive needs a finite deadline,
// its only exit. st accumulates synchronization counters.
func Drive(tr Transport, st *SyncStats, deadline vtime.Time, o DriveOpts) error {
	pace := o.Pace
	if pace != nil && deadline == vtime.Forever {
		return fmt.Errorf("parcore: a paced drive needs a finite deadline")
	}
	var start time.Time
	quantum := vtime.Duration(0)
	if pace != nil {
		quantum = pace.Quantum
		if quantum <= 0 {
			quantum = DefaultPaceQuantum
		}
		start = time.Now()
	}
	// The wall-time profile. Window rounds, drain rounds and pacing sleeps
	// have a bucket each; whatever else the loop does — the bounds-only
	// round that opens it, the grant algebra — is barrier time, so the four
	// buckets sum to the drive's wall clock.
	prof := &st.Profile
	begin, before := time.Now(), prof.ComputeWallNs+prof.SerialWallNs+prof.IdleWallNs
	defer func() {
		spent := prof.ComputeWallNs + prof.SerialWallNs + prof.IdleWallNs - before
		prof.BarrierWallNs += uint64(time.Since(begin)) - spent
	}()
	// wallNow is the wall clock in virtual units; sleepUntil releases a
	// window bound no earlier than its wall time.
	wallNow := func() vtime.Time { return vtime.Time(time.Since(start)) }
	sleepUntil := func(t vtime.Time) {
		if d := t.Sub(wallNow()); d > 0 {
			t0 := time.Now()
			time.Sleep(time.Duration(d))
			prof.IdleWallNs += uint64(time.Since(t0))
		}
	}
	k := tr.Cores()
	chain := o.Chain
	if chain == nil {
		chain = make([][]vtime.Duration, k)
		for i := range chain {
			chain[i] = make([]vtime.Duration, k)
		}
	}
	cmds := make([]Cmd, k)
	// prev[j] is the last bound shard j was granted (or drained to); -1
	// until known. Grants never regress below it, the span from it to the
	// next grant is the shard's effective per-window lookahead (reported as
	// lookahead min/mean/max), and no message in flight toward j fires
	// before it.
	prev := make([]vtime.Time, k)
	for j := range prev {
		prev[j] = -1
	}
	// clock is the highest finite bound issued so far: no shard's clock is
	// past it, so a Floor above it is above every shard's present.
	clock := vtime.Time(0)
	// bs holds every shard's bounds after the last round, settled for the
	// messages that round left in flight.
	var bs []Bounds
	round := func(bucket *uint64) (progressed bool, err error) {
		for j := range cmds {
			if g := cmds[j].Grant; g != vtime.Forever && g > clock {
				clock = g
			}
		}
		floor := clock + 1
		if pace != nil {
			// Under pacing an ingress stamp is also never earlier than its
			// arrival's wall time, even when the emulation lags the wall
			// clock: an external observer then cannot measure a delay
			// shorter than the model's.
			if w := wallNow(); w > floor {
				floor = w
			}
		}
		for j := range cmds {
			cmds[j].Floor = floor
		}
		t0 := time.Now()
		reps, err := tr.Step(cmds)
		if bucket != nil {
			*bucket += uint64(time.Since(t0))
		}
		if err != nil {
			return false, err
		}
		for j, r := range reps {
			if g := cmds[j].Grant; g > prev[j] {
				prev[j] = g
			}
			st.Messages += r.Sent
			progressed = progressed || r.Progressed
		}
		bs = settle(reps, prev, chain)
		return progressed, nil
	}
	setAll := func(c Cmd) {
		for j := range cmds {
			cmds[j] = c
		}
	}
	release := func() error {
		for j, c := range cmds {
			if prev[j] >= 0 && c.Grant > prev[j] && c.Grant != vtime.Forever {
				st.noteGrant(c.Grant.Sub(prev[j]))
			}
		}
		st.Windows++
		_, err := round(&prof.ComputeWallNs)
		return err
	}
	drain := func(t vtime.Time) error {
		if pace != nil {
			sleepUntil(t)
		}
		setAll(Cmd{Grant: t, Drain: true})
		for {
			progressed, err := round(&prof.SerialWallNs)
			if err != nil {
				return err
			}
			if !progressed {
				return nil
			}
			st.SerialRounds++
		}
	}
	setAll(Cmd{Grant: -1})
	if _, err := round(nil); err != nil {
		return err
	}
	for {
		minNext := vtime.Forever
		for _, b := range bs {
			if b.Next < minNext {
				minNext = b.Next
			}
		}
		// Nothing left to fire by the deadline ends an unpaced drive. A
		// paced one idles on to the deadline's wall time: live ingress may
		// still arrive at any wall instant, and each quantum-sized window is
		// an admission point for it.
		idle := minNext > deadline || minNext == vtime.Forever
		if idle && (pace == nil || wallNow() >= deadline) {
			break
		}
		// Shard j may run through A[j]-1, and no further than the caller's
		// deadline: an unconstrained horizon (no peer can ever reach j from
		// its current state) must not clamp clocks to the end of time.
		A := grantFixpoint(bs, chain)
		canFire := false
		for j := range cmds {
			g := deadline
			if A[j] != vtime.Forever && A[j]-1 < g {
				g = A[j] - 1
			}
			if g < prev[j] {
				g = prev[j]
			}
			cmds[j] = Cmd{Grant: g}
			if bs[j].Next <= g {
				canFire = true
			}
		}
		if !canFire && !idle {
			// No shard may reach even its next event: lookahead is zero or
			// consumed. Drain time minNext serially, deterministically
			// (paced runs first let the wall clock catch up to it).
			if err := drain(minNext); err != nil {
				return err
			}
			continue
		}
		if pace != nil {
			// Slave window release to the wall clock: never run more than
			// one quantum ahead, and never release a bound before its wall
			// time. The clamp comes after the can-anything-fire test, so a
			// far-off next event is approached in quantum-sized windows, not
			// slept to in one drain. When the emulation lags the wall clock
			// (slow barriers, heavy windows) the cap is already behind and
			// the run simply proceeds flat out.
			ahead, latest := wallNow().Add(quantum), vtime.Time(-1)
			for j := range cmds {
				g := max(min(cmds[j].Grant, ahead), prev[j])
				cmds[j].Grant = g
				latest = max(latest, g)
			}
			sleepUntil(latest)
		}
		if err := release(); err != nil {
			return err
		}
	}
	if deadline == vtime.Forever {
		return nil
	}
	setAll(Cmd{Grant: deadline}) // advance all clocks to the deadline
	return release()
}

// settle turns a round's reports into the bounds the grant algebra may
// trust. A shard's reported bounds predate the application of anything the
// round left in flight toward it; by earliest-output-time safety such a
// message fires no earlier than the shard's last grant, so the bounds are
// lowered to that floor — the shard's next event may be the application
// itself, and what the application provokes toward peer l can fire no
// earlier than floor + chain[j][l].
func settle(reps []Report, prev []vtime.Time, chain [][]vtime.Duration) []Bounds {
	k := len(reps)
	bs := make([]Bounds, k)
	for j, r := range reps {
		b := r.Bounds
		if r.Inflight > 0 {
			fl := prev[j]
			if fl < 0 {
				fl = 0
			}
			if b.Next > fl {
				b.Next = fl
			}
			minChain := noCross
			for l := 0; l < k; l++ {
				if l == j {
					continue
				}
				d := chain[j][l]
				if d < minChain {
					minChain = d
				}
				if b.SafeTo != nil {
					if v := satAdd(fl, d); v < b.SafeTo[l] {
						b.SafeTo[l] = v
					}
				}
			}
			if v := satAdd(fl, minChain); v < b.Safe {
				b.Safe = v
			}
		}
		bs[j] = b
	}
	return bs
}

// grantFixpoint closes the reported per-pair bounds under chained
// reactions. Seed: A[j] = min over peers i of the earliest time a message
// from i's current state can fire on j. Relaxation: a message landing on i
// at A[i] can provoke a message onward to j no earlier than A[i] +
// Chain[i][j], so A[j] = min(A[j], A[i] + Chain[i][j]); k-1 rounds reach
// the min-plus fixpoint. Shard j may then run through A[j]-1: every
// message it will ever hear about — whether emitted from a peer's present
// state or from a state that future cross-shard traffic provokes — fires
// at or after A[j]. The bounds are monotone across barriers (a shard's
// post-apply state only contains consequences the fixpoint already
// accounted for), so grants never regress.
func grantFixpoint(bs []Bounds, chain [][]vtime.Duration) []vtime.Time {
	k := len(bs)
	A := make([]vtime.Time, k)
	for j := range A {
		a := vtime.Forever
		for i := range bs {
			if i == j {
				continue
			}
			s := bs[i].Safe
			if bs[i].SafeTo != nil {
				s = bs[i].SafeTo[j]
			}
			if s < a {
				a = s
			}
		}
		A[j] = a
	}
	for round := 1; round < k; round++ {
		changed := false
		for i := range A {
			if A[i] == vtime.Forever {
				continue
			}
			for j := range A {
				if i == j {
					continue
				}
				if v := satAdd(A[i], chain[i][j]); v < A[j] {
					A[j] = v
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return A
}

// noCross marks "no path": a crossing distance larger than any reachable
// virtual time. Saturating adds keep it absorbing.
const noCross = vtime.Duration(math.MaxInt64)

// SyncPlan is one shard's static crossing-distance tables, computed by ComputeSyncPlan from the distilled topology with
// dynamics-floored latencies. All distances are lower bounds that hold
// whatever routes packets take (structural adjacency over-approximates
// the route table, so mid-run reroutes cannot invalidate them).
type SyncPlan struct {
	Shard int
	Cores int
	// EventCross[j] lower-bounds the delay from any event taking effect on
	// this shard — a scheduled local event firing, a tunneled packet
	// entering a frontier pipe, a delivery completing and the application
	// responding — to a message from its consequences firing on shard j.
	// This is row [Shard] of the reaction-chain matrix.
	EventCross []vtime.Duration
	// ExitCross[j][pid] lower-bounds the delay from the head-of-line
	// packet leaving owned pipe pid to a message from its local
	// continuations firing on shard j. Continuations that cross
	// immediately are excluded: under the eager profile their handoffs
	// were already emitted when the packet entered the pipe, so only the
	// packet's possible futures inside this shard still owe messages.
	ExitCross [][]vtime.Duration
	// VNCross[j][vn] lower-bounds the delay from homed VN vn injecting a
	// packet to a message from its consequences firing on shard j — the
	// Dijkstra value of the VN state itself. Pending scheduler events that
	// carry a VN owner claim (vtime.Scheduler.AtTagged) are priced with
	// this instead of the shard-wide EventCross minimum: a retransmit
	// timer deep in the shard's interior then bounds the horizon by its
	// own multi-hop distance to the cut, not by whichever frontier pipe
	// happens to sit closest. noCross where the VN cannot reach j.
	VNCross [][]vtime.Duration
	// Owner, Lat, and HomeOf support per-packet route walks: Owner[pid] is
	// the shard owning pipe pid (mod Cores), Lat[pid] its dynamics-floored
	// latency, HomeOf[vn] the shard homing VN vn. Packets are source-routed
	// — the route is pinned at injection and survives mid-run reroutes — so
	// an in-flight packet's earliest crossing is its actual remaining route
	// walked at floored latencies, not the structural worst case over every
	// route the topology admits. Shared across shards; read-only.
	Owner  []int
	Lat    []vtime.Duration
	HomeOf []int
}

// crossFrom walks a packet's remaining source route, starting as it enters
// pipe route[i0] at time t, and reports the packet's first unannounced
// cross-shard consequence: entering a peer-owned pipe or handing a delivery
// to a peer homes the crossing there (cross(peer, at)); delivering to a VN
// homed on this shard prices the application's possible response from that
// VN (deliver(vn, at)). Intermediate owned pipes contribute their floored
// latency and nothing else — queueing and transmission only push the
// crossing later. The walk stops early once t reaches lim (no bound it
// could produce would lower anything the caller still tracks).
func (p *SyncPlan) crossFrom(route []pipes.ID, i0 int, t vtime.Time, dst pipes.VN,
	lim vtime.Time, cross func(peer int, at vtime.Time), deliver func(vn pipes.VN, at vtime.Time)) {
	for i := i0; ; i++ {
		if t >= lim {
			return
		}
		if i >= len(route) {
			if h := p.HomeOf[dst]; h != p.Shard {
				cross(h, t)
			} else {
				deliver(dst, t)
			}
			return
		}
		pid := route[i]
		if p.Owner[pid] != p.Shard {
			cross(p.Owner[pid], t)
			return
		}
		t = satAdd(t, p.Lat[pid])
	}
}

// ShardSync holds one shard's static synchronization inputs, derived from
// the assignment by ComputeSyncFloor.
type ShardSync struct {
	// BorderPipes are the shard's owned pipes whose exit can produce a
	// cross-shard event.
	BorderPipes []pipes.ID
	// Lookahead is the minimum latency over BorderPipes: a packet must
	// spend at least that long inside a cut pipe before it can surface on
	// a peer shard.
	Lookahead vtime.Duration
	// IngressCross flags shards whose homed VNs can inject directly into
	// a peer's pipe (possible under collapsing distillation modes), which
	// pins the shard's safe bound to its next event time.
	IngressCross bool
	// Plan carries the crossing-distance tables (ComputeSyncPlan fills it;
	// ComputeSyncFloor alone leaves it nil and the shard reports no SafeTo).
	Plan *SyncPlan
}

// Homes maps every VN to the shard owning its access pipes, so that
// injection — and, because k-clusters keeps duplex pairs together,
// delivery — is core-local.
func Homes(g *topology.Graph, b *bind.Binding, pod *bind.POD, k int) []int {
	homes := make([]int, b.NumVNs())
	for v, node := range b.VNHome {
		if outs := g.Out(node); len(outs) > 0 {
			homes[v] = pod.Owner(pipes.ID(outs[0])) % k
		}
	}
	return homes
}

// ComputeSyncFloor derives every shard's synchronization inputs: the set of
// owned pipes whose exit can cross shards — either the packet's next hop is
// a pipe owned elsewhere (structural adjacency over-approximates the
// routes) or the pipe terminates at a VN homed elsewhere — the resulting
// lookahead, and the ingress-crossing flag. When floor is non-nil, each
// border pipe contributes floor(link, initialLatency) to its shard's
// lookahead instead of the initial latency. Runs with link dynamics must
// pass dynamics.Spec.LatencyFloorFunc here — a trace can drop a cut pipe's
// latency below its bind-time value mid-run, and a lookahead derived from
// the initial latency would then release windows a cross-shard message can
// still land inside.
func ComputeSyncFloor(g *topology.Graph, b *bind.Binding, pod *bind.POD, homes []int, k int, floor func(topology.LinkID, vtime.Duration) vtime.Duration) []ShardSync {
	sync := make([]ShardSync, k)
	for _, l := range g.Links {
		ow := pod.Owner(pipes.ID(l.ID))
		if ow < 0 {
			continue // sparse worlds: placeholder slot outside this shard's view
		}
		o := ow % k
		border := false
		for _, nid := range g.Out(l.Dst) {
			if pod.Owner(pipes.ID(nid))%k != o {
				border = true
				break
			}
		}
		if !border {
			if vn := b.VNOfNode[l.Dst]; vn >= 0 && homes[vn] != o {
				border = true
			}
		}
		if !border {
			continue
		}
		s := &sync[o]
		lat := vtime.DurationOf(l.Attr.LatencySec)
		if floor != nil {
			lat = floor(l.ID, lat)
		}
		if len(s.BorderPipes) == 0 || lat < s.Lookahead {
			s.Lookahead = lat
		}
		s.BorderPipes = append(s.BorderPipes, pipes.ID(l.ID))
	}
	for v, node := range b.VNHome {
		for _, lid := range g.Out(node) {
			if pod.Owner(pipes.ID(lid))%k != homes[v] {
				sync[homes[v]].IngressCross = true
			}
		}
	}
	return sync
}

// ComputeSyncPlan is ComputeSyncFloor plus the crossing-distance tables: for every (shard, peer) pair it runs a reverse Dijkstra from the
// peer's territory over the shard's owned pipes and homed VNs, producing
// the per-pipe and per-event distance tables in SyncPlan. Latencies are
// dynamics-floored like the lookahead.
func ComputeSyncPlan(g *topology.Graph, b *bind.Binding, pod *bind.POD, homes []int, k int, floor func(topology.LinkID, vtime.Duration) vtime.Duration) []ShardSync {
	sync := ComputeSyncFloor(g, b, pod, homes, k, floor)
	nPipes := 0
	for _, l := range g.Links {
		if int(l.ID) >= nPipes {
			nPipes = int(l.ID) + 1
		}
	}
	owner := make([]int, nPipes)
	lat := make([]vtime.Duration, nPipes)
	dstOf := make([]topology.NodeID, nPipes)
	for i := range owner {
		owner[i] = -1
	}
	for _, l := range g.Links {
		id := int(l.ID)
		ow := pod.Owner(pipes.ID(l.ID))
		if ow < 0 {
			continue // sparse worlds: placeholder slot, owner stays -1
		}
		owner[id] = ow % k
		la := vtime.DurationOf(l.Attr.LatencySec)
		if floor != nil {
			la = floor(l.ID, la)
		}
		lat[id] = la
		dstOf[id] = l.Dst
	}
	for o := 0; o < k; o++ {
		p := buildShardPlan(g, b, homes, owner, lat, dstOf, k, o, nPipes)
		p.Owner, p.Lat, p.HomeOf = owner, lat, homes
		sync[o].Plan = p
	}
	return sync
}

// ChainMatrix assembles the reaction-chain matrix for DriveOpts.Chain from
// the shards' plans (row i is shard i's EventCross). Nil when any shard
// lacks a plan.
func ChainMatrix(syncs []ShardSync) [][]vtime.Duration {
	chain := make([][]vtime.Duration, len(syncs))
	for i, s := range syncs {
		if s.Plan == nil {
			return nil
		}
		chain[i] = s.Plan.EventCross
	}
	return chain
}

// buildShardPlan computes shard o's SyncPlan. The shard's state space is
// its owned pipes plus its homed VNs; a pipe's successors are the owned
// out-pipes of its destination node and the destination's VN when homed
// here, a VN's successors are the owned pipes it can inject into. Steps
// that leave the shard (a peer-owned out-pipe, a peer-homed terminal VN,
// a peer-owned injection target) terminate a path. For each peer j a
// reverse Dijkstra yields val(x) = the minimum virtual time a packet
// entering state x spends inside this shard before a message can fire on
// j; pipes cost their floored latency, VN hand-offs are instantaneous.
func buildShardPlan(g *topology.Graph, b *bind.Binding, homes []int, owner []int, lat []vtime.Duration, dstOf []topology.NodeID, k, o, nPipes int) *SyncPlan {
	pipeAt := make([]int, nPipes)
	for i := range pipeAt {
		pipeAt[i] = -1
	}
	var ownedPipes []int
	for pid := 0; pid < nPipes; pid++ {
		if owner[pid] == o {
			pipeAt[pid] = len(ownedPipes)
			ownedPipes = append(ownedPipes, pid)
		}
	}
	var homedVNs []int
	for v, h := range homes {
		if h == o {
			homedVNs = append(homedVNs, v)
		}
	}
	vnAt := make(map[int]int, len(homedVNs))
	for vi, v := range homedVNs {
		vnAt[v] = len(ownedPipes) + vi
	}
	n := len(ownedPipes) + len(homedVNs)
	cost := make([]vtime.Duration, n)
	succ := make([][]int32, n)
	crossTo := make([][]int, n)
	for li, pid := range ownedPipes {
		cost[li] = lat[pid]
		dn := dstOf[pid]
		for _, nid := range g.Out(dn) {
			q := int(nid)
			if owner[q] == o {
				succ[li] = append(succ[li], int32(pipeAt[q]))
			} else if owner[q] >= 0 {
				crossTo[li] = append(crossTo[li], owner[q])
			}
		}
		if vn := b.VNOfNode[dn]; vn >= 0 {
			if homes[vn] == o {
				succ[li] = append(succ[li], int32(vnAt[int(vn)]))
			} else {
				crossTo[li] = append(crossTo[li], homes[vn])
			}
		}
	}
	for vi, v := range homedVNs {
		x := len(ownedPipes) + vi
		for _, nid := range g.Out(b.VNHome[v]) {
			q := int(nid)
			if owner[q] == o {
				succ[x] = append(succ[x], int32(pipeAt[q]))
			} else if owner[q] >= 0 {
				crossTo[x] = append(crossTo[x], owner[q])
			}
		}
	}
	pred := make([][]int32, n)
	for x := range succ {
		for _, y := range succ[x] {
			pred[y] = append(pred[y], int32(x))
		}
	}
	// Frontier pipes: the owned pipes a cross-shard message can enter
	// directly — the step after a peer-owned pipe, or the injection target
	// of a peer-homed VN. Tunneled packets surface here, so the
	// event-to-crossing bound must cover their onward distances.
	frontier := make([]bool, n)
	for pid := 0; pid < nPipes; pid++ {
		if owner[pid] < 0 || owner[pid] == o {
			continue
		}
		for _, nid := range g.Out(dstOf[pid]) {
			if q := int(nid); owner[q] == o {
				frontier[pipeAt[q]] = true
			}
		}
	}
	for v, h := range homes {
		if h == o || v >= len(b.VNHome) {
			continue
		}
		for _, nid := range g.Out(b.VNHome[v]) {
			if q := int(nid); owner[q] == o {
				frontier[pipeAt[q]] = true
			}
		}
	}
	plan := &SyncPlan{
		Shard:      o,
		Cores:      k,
		EventCross: make([]vtime.Duration, k),
		ExitCross:  make([][]vtime.Duration, k),
		VNCross:    make([][]vtime.Duration, k),
	}
	val := make([]vtime.Duration, n)
	pq := topology.MinHeap[pqItem]{Less: func(a, b pqItem) bool { return a.d < b.d }}
	for j := 0; j < k; j++ {
		plan.EventCross[j] = noCross
		if j == o {
			continue
		}
		for x := range val {
			val[x] = noCross
		}
		pq.Reset()
		for x := 0; x < n; x++ {
			for _, t := range crossTo[x] {
				if t == j {
					val[x] = cost[x]
					pq.Push(pqItem{x, cost[x]})
					break
				}
			}
		}
		for pq.Len() > 0 {
			it := pq.Pop()
			if it.d > val[it.x] {
				continue
			}
			for _, pi := range pred[it.x] {
				p := int(pi)
				if nv := satDurAdd(cost[p], it.d); nv < val[p] {
					val[p] = nv
					pq.Push(pqItem{p, nv})
				}
			}
		}
		ec := make([]vtime.Duration, nPipes)
		for pid := range ec {
			ec[pid] = noCross
		}
		for li, pid := range ownedPipes {
			best := noCross
			for _, s := range succ[li] {
				if v := val[s]; v < best {
					best = v
				}
			}
			ec[pid] = best
		}
		plan.ExitCross[j] = ec
		vnc := make([]vtime.Duration, len(homes))
		for v := range vnc {
			vnc[v] = noCross
		}
		evc := noCross
		for li := range ownedPipes {
			if frontier[li] && val[li] < evc {
				evc = val[li]
			}
		}
		for vi, v := range homedVNs {
			d := val[len(ownedPipes)+vi]
			vnc[v] = d
			if d < evc {
				evc = d
			}
		}
		plan.EventCross[j] = evc
		plan.VNCross[j] = vnc
	}
	return plan
}

// pqItem is one entry of the reverse-Dijkstra frontier (lazy deletion).
type pqItem struct {
	x int
	d vtime.Duration
}

// ShardBounds computes one shard's Bounds from its live state: Next is its
// next event time; Safe bounds the earliest future cross-shard message it
// can emit — min(next event, earliest pipe deadline) plus its lookahead,
// lowered to the earliest occupied border-pipe deadline in lazy mode
// (handoffs are emitted at exit-processing time, so one can fire as soon as
// the earliest occupied border pipe drains), and pinned to the next event
// time under an ingress crossing.
//
// With a SyncPlan and an eager emulator the bounds additionally carry the
// per-peer SafeTo vector, assembled from three scans. Each pending
// scheduler event contributes its time plus a crossing distance — the
// owning VN's own (VNCross) when the event carries an owner claim, the
// shard-wide minimum (EventCross) otherwise. Each in-flight packet is
// priced by walking its actual remaining source route at floored
// latencies: its first still-unannounced crossing (the hop after next — the
// next hop's handoff was pre-emitted at enqueue under the eager profile),
// or, when it terminates here, its delivery plus the destination VN's
// response distance. Each message waiting in the applier (heard at a
// barrier, not yet fired) is priced the same way from its entry pipe; the
// applier's bucket events carry a reserved tag so the generic event scan
// skips them. The shard's own core activation is excluded from the event
// term — everything that activation can do traces back to an occupied pipe
// the packet walk already covered, and seeing past it is what lets an
// interior shard report bounds far beyond its next wakeup. app may be nil,
// in which case applier events fall back to the EventCross pricing.
func ShardBounds(sched *vtime.Scheduler, emu *emucore.Emulator, sync ShardSync, app *Applier) Bounds {
	next := sched.NextEventTime()
	t := next
	if hm := emu.NextPipeDeadline(); hm < t {
		t = hm
	}
	e := satAdd(t, sync.Lookahead)
	if sync.IngressCross {
		e = t
	} else if !emu.Eager() {
		for _, pid := range sync.BorderPipes {
			if d := emu.Pipe(pid).NextDeadline(); d < e {
				e = d
			}
		}
	}
	if len(sync.BorderPipes) == 0 && !sync.IngressCross {
		e = vtime.Forever
	}
	b := Bounds{Next: next, Safe: e}
	p := sync.Plan
	if p == nil || !emu.Eager() {
		return b
	}
	safeTo := make([]vtime.Time, p.Cores)
	for j := range safeTo {
		safeTo[j] = vtime.Forever
	}
	// lim bounds the route walks: once a walk's clock reaches the largest
	// bound still standing it cannot lower anything.
	lim := func() vtime.Time {
		m := vtime.Time(0)
		for j, v := range safeTo {
			if j != p.Shard && v > m {
				m = v
			}
		}
		return m
	}
	cross := func(peer int, at vtime.Time) {
		if at < safeTo[peer] {
			safeTo[peer] = at
		}
	}
	deliver := func(vn pipes.VN, at vtime.Time) {
		for j := range safeTo {
			if j == p.Shard {
				continue
			}
			if vns := p.VNCross[j]; int(vn) < len(vns) {
				if v := satAdd(at, vns[vn]); v < safeTo[j] {
					safeTo[j] = v
				}
			}
		}
	}
	emu.ScanAppEvents(func(at vtime.Time, vn int32) {
		if app != nil && vn == applierTag {
			return // priced per message by the applier scan below
		}
		for j := range safeTo {
			if j == p.Shard {
				continue
			}
			d := p.EventCross[j]
			// noCross also marks VNs not homed here: an owner claim this
			// shard cannot vouch for falls back to the shard-wide minimum.
			if vn >= 0 {
				if vns := p.VNCross[j]; int(vn) < len(vns) && vns[vn] != noCross {
					d = vns[vn]
				}
			}
			if v := satAdd(at, d); v < safeTo[j] {
				safeTo[j] = v
			}
		}
	})
	emu.ScanOccupied(func(pid pipes.ID, d vtime.Time) {
		emu.Pipe(pid).ScanEntries(func(pkt *pipes.Packet, exit vtime.Time) {
			// The hop after this pipe was pre-emitted at enqueue (eager
			// profile): a crossing or peer delivery there is already
			// announced and owes nothing; only futures deeper inside this
			// shard still do.
			next := pkt.Hop + 1
			if next >= len(pkt.Route) {
				if p.HomeOf[pkt.Dst] != p.Shard {
					return
				}
			} else if p.Owner[pkt.Route[next]] != p.Shard {
				return
			}
			p.crossFrom(pkt.Route, next, exit, pkt.Dst, lim(), cross, deliver)
		})
	})
	if app != nil {
		app.ScanPending(func(m Msg) {
			if m.Pid < 0 {
				deliver(m.Pkt.Dst, m.Fire)
				return
			}
			// The message enters pipe m.Pid at m.At; nothing about it is
			// announced beyond that entry.
			p.crossFrom(m.Pkt.Route, m.Pkt.Hop, m.At, m.Pkt.Dst, lim(), cross, deliver)
		})
	}
	b.SafeTo = safeTo
	s := vtime.Forever
	for _, v := range safeTo {
		if v < s {
			s = v
		}
	}
	b.Safe = s
	return b
}

// satAdd offsets t by d, saturating at Forever.
func satAdd(t vtime.Time, d vtime.Duration) vtime.Time {
	if t == vtime.Forever || d == 0 {
		return t
	}
	s := t.Add(d)
	if s < t {
		return vtime.Forever
	}
	return s
}

// satDurAdd adds two crossing distances, saturating at noCross.
func satDurAdd(a, b vtime.Duration) vtime.Duration {
	if a == noCross || b == noCross {
		return noCross
	}
	s := a + b
	if s < a {
		return noCross
	}
	return s
}

// Outbox collects the cross-shard messages a shard's emulator emits during
// a window, stamped with the canonical (Fire, Sender, Seq) key. Transports
// move its per-target batches at barriers.
type Outbox struct {
	shard, cores int
	sched        *vtime.Scheduler
	seq          uint64
	pending      [][]Msg
}

// NewOutbox returns an empty outbox for the given shard.
func NewOutbox(shard, cores int, sched *vtime.Scheduler) *Outbox {
	return &Outbox{shard: shard, cores: cores, sched: sched, pending: make([][]Msg, cores)}
}

// Handoff is the emucore.HandoffFunc that records cross-shard events. The
// fire time is the event time clamped to the shard's clock (an event handed
// off mid-window may target a time the sender has already passed; the
// receiver hears about it at the barrier, before its own clock gets there).
func (o *Outbox) Handoff(target int, pkt *pipes.Packet, pid pipes.ID, at vtime.Time, lag vtime.Duration) {
	fire := at
	if now := o.sched.Now(); fire < now {
		fire = now
	}
	o.seq++
	t := target % o.cores
	o.pending[t] = append(o.pending[t], Msg{
		Pkt: pkt, Pid: pid, At: at, Lag: lag, Fire: fire, Sender: o.shard, Seq: o.seq,
	})
}

// Seq reports the last canonical sequence number this outbox stamped; it
// and the scheduler clock are the outbox's whole serializable state once
// the pending batches are flushed (checkpoints are cut at barriers, after
// the flush, so pending is empty by construction).
func (o *Outbox) Seq() uint64 { return o.seq }

// Sender moves one peer's whole pending batch at a barrier. The data path
// is batch-first: transports carry the slice as a unit — a slice append
// in-process, one (or a few MTU-bounded) wire frames over sockets — so the
// per-message cost of a window is paid once per (window, peer), not once
// per packet.
type Sender interface {
	Send(target int, msgs []Msg) error
}

// Flush hands every non-empty per-peer batch to the sender, one Send call
// per peer, in target order. The outbox is empty afterwards.
func (o *Outbox) Flush(s Sender) error {
	for t, msgs := range o.pending {
		if len(msgs) == 0 {
			continue
		}
		o.pending[t] = nil
		if err := s.Send(t, msgs); err != nil {
			return err
		}
	}
	return nil
}

// SortMsgs orders msgs by the canonical barrier key (Fire, Sender, Seq), so
// that applying a batch is independent of arrival order.
func SortMsgs(msgs []Msg) {
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.Fire != b.Fire {
			return a.Fire < b.Fire
		}
		if a.Sender != b.Sender {
			return a.Sender < b.Sender
		}
		return a.Seq < b.Seq
	})
}

// Applier schedules inbound cross-shard messages onto a shard's scheduler,
// one event per distinct fire time: messages sharing a fire time apply
// back-to-back inside a single activation (with the emulator's core re-arm
// deferred to the end of the cluster, see emucore.BatchApply), so the
// scheduler fires once per deadline cluster instead of once per message.
//
// The fire-time buckets persist across barriers: per-shard window grants
// mean two messages with the same fire time can arrive at different
// barriers, and they must still apply in the canonical (Fire, Sender, Seq)
// order — the bucket accumulates them and sorts when it fires, which makes
// the apply order independent of where the synchronization algebra placed
// its window boundaries. A message firing before the shard's clock is an
// earliest-output-time violation — the grant algebra in Drive is why it
// cannot happen — reported as an error so remote transports can surface it
// instead of corrupting virtual time.
type Applier struct {
	sched   *vtime.Scheduler
	emu     *emucore.Emulator
	buckets map[vtime.Time][]Msg
}

// applierTag marks the applier's bucket-activation events on the scheduler.
// It is not a VN owner claim: ShardBounds skips these events in its generic
// scan and prices each waiting message individually by its route instead.
const applierTag = int32(-2)

// NewApplier returns an Applier for one shard.
func NewApplier(sched *vtime.Scheduler, emu *emucore.Emulator) *Applier {
	return &Applier{sched: sched, emu: emu, buckets: make(map[vtime.Time][]Msg)}
}

// ScanPending visits every message heard at a barrier but not yet fired, in
// unspecified order (callers fold the visits into order-insensitive minima).
func (a *Applier) ScanPending(visit func(m Msg)) {
	for _, bucket := range a.buckets {
		for _, m := range bucket {
			visit(m)
		}
	}
}

// ScanBuckets visits the applier's pending fire-time buckets in ascending
// fire order with each bucket's message count — the canonical shape probe
// checkpoint fingerprints use (bucket contents are visited by ScanPending).
func (a *Applier) ScanBuckets(visit func(fire vtime.Time, count int)) {
	fires := make([]vtime.Time, 0, len(a.buckets))
	for fire := range a.buckets {
		fires = append(fires, fire)
	}
	sort.Slice(fires, func(i, j int) bool { return fires[i] < fires[j] })
	for _, fire := range fires {
		visit(fire, len(a.buckets[fire]))
	}
}

// Apply buckets a batch by fire time, scheduling each new bucket's
// activation. The msgs slice may be reused by the caller afterwards.
func (a *Applier) Apply(msgs []Msg) error {
	now := a.sched.Now()
	for _, m := range msgs {
		if m.Fire < now {
			return fmt.Errorf("parcore: EOT violation: fire %v < now %v (pid %d)", m.Fire, now, m.Pid)
		}
		if _, ok := a.buckets[m.Fire]; !ok {
			fire := m.Fire
			a.sched.AtTagged(fire, applierTag, func() {
				cluster := a.buckets[fire]
				delete(a.buckets, fire)
				SortMsgs(cluster)
				a.emu.BatchApply(func() {
					for _, m := range cluster {
						if m.Pid >= 0 {
							a.emu.TunnelIn(m.Pkt, m.Pid, m.At)
						} else {
							a.emu.CompleteDelivery(m.Pkt, m.Lag, m.At)
						}
					}
				})
			})
		}
		a.buckets[m.Fire] = append(a.buckets[m.Fire], m)
	}
	return nil
}
