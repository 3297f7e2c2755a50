package routing

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

func attrs(mbps, ms float64) topology.LinkAttrs {
	return topology.LinkAttrs{BandwidthBps: mbps * 1e6, LatencySec: ms * 1e-3, QueuePkts: 30}
}

func TestDVConvergesFromColdStart(t *testing.T) {
	g := topology.Ring(6, 2, attrs(20, 5), attrs(2, 1))
	sched := vtime.NewScheduler()
	d := New(sched, g, g.Clients(), Config{})
	d.Start()
	sched.RunUntil(vtime.Time(60 * vtime.Second))
	if !d.Converged() {
		t.Fatal("DV did not converge to shortest paths")
	}
	if d.Messages == 0 || d.Bytes == 0 {
		t.Error("no protocol overhead recorded")
	}
}

func TestDVTableMatchesMatrixAfterConvergence(t *testing.T) {
	g := topology.Ring(5, 2, attrs(20, 5), attrs(2, 1))
	homes := g.Clients()
	sched := vtime.NewScheduler()
	d := New(sched, g, homes, Config{})
	d.Start()
	sched.RunUntil(vtime.Time(60 * vtime.Second))

	m, err := bind.BuildMatrix(g, homes)
	if err != nil {
		t.Fatal(err)
	}
	lat := func(r bind.Route) float64 {
		total := 0.0
		for _, pid := range r {
			total += g.Links[pid].Attr.LatencySec
		}
		return total
	}
	for i := 0; i < len(homes); i++ {
		for j := 0; j < len(homes); j++ {
			rd, okd := d.Table().Lookup(pipes.VN(i), pipes.VN(j))
			rm, okm := m.Lookup(pipes.VN(i), pipes.VN(j))
			if okd != okm {
				t.Fatalf("lookup(%d,%d): dv %v matrix %v", i, j, okd, okm)
			}
			if !okd {
				continue
			}
			if lat(rd) > lat(rm)+1e-9 {
				t.Fatalf("dv route %d->%d slower than optimal: %v vs %v", i, j, lat(rd), lat(rm))
			}
		}
	}
}

func TestDVReconvergesAfterFailure(t *testing.T) {
	// Diamond: fast path through `top`, slow path through `bot`. Fail the
	// fast path and watch the protocol reroute.
	g := topology.New()
	a := g.AddNode(topology.Client, "a")
	top := g.AddNode(topology.Stub, "top")
	bot := g.AddNode(topology.Stub, "bot")
	b := g.AddNode(topology.Client, "b")
	f1, f1r := g.AddDuplex(a, top, attrs(10, 1))
	g.AddDuplex(top, b, attrs(10, 1))
	g.AddDuplex(a, bot, attrs(10, 20))
	g.AddDuplex(bot, b, attrs(10, 20))
	_ = f1r
	homes := []topology.NodeID{a, b}
	sched := vtime.NewScheduler()
	d := New(sched, g, homes, Config{})
	d.Start()
	sched.RunUntil(vtime.Time(30 * vtime.Second))

	r, ok := d.Table().Lookup(0, 1)
	if !ok || len(r) != 2 || pipes.ID(f1) != r[0] {
		t.Fatalf("initial route should use the fast path: %v %v", r, ok)
	}
	// Fail a->top (both directions, as a physical link cut would).
	d.SetLinkDown(f1, true)
	d.SetLinkDown(f1r, true)
	// Immediately after, the route is withdrawn or rerouted; eventually it
	// settles on the slow path.
	sched.RunUntil(vtime.Time(90 * vtime.Second))
	r, ok = d.Table().Lookup(0, 1)
	if !ok {
		t.Fatal("no route after reconvergence")
	}
	for _, pid := range r {
		if pid == pipes.ID(f1) {
			t.Fatal("route still uses the failed link")
		}
	}
	if len(r) != 2 || g.Links[r[0]].Dst != bot {
		t.Fatalf("route did not move to the slow path: %v", r)
	}
	// Heal: the fast path returns.
	d.SetLinkDown(f1, false)
	d.SetLinkDown(f1r, false)
	sched.RunUntil(vtime.Time(180 * vtime.Second))
	r, _ = d.Table().Lookup(0, 1)
	if len(r) != 2 || g.Links[r[0]].Dst != top {
		t.Fatalf("route did not return to the fast path after heal: %v", r)
	}
}

func TestDVTriggeredBeatsPeriodic(t *testing.T) {
	// Convergence after failure should happen in ~triggered-update time,
	// far faster than the advertisement period.
	g := topology.Ring(8, 1, attrs(20, 5), attrs(2, 1))
	homes := g.Clients()
	sched := vtime.NewScheduler()
	cfg := Config{AdvertiseEvery: 30 * vtime.Second}
	d := New(sched, g, homes, cfg)
	d.Start()
	sched.RunUntil(vtime.Time(120 * vtime.Second))
	if !d.Converged() {
		t.Fatal("not converged initially")
	}
	// Fail one ring segment (both directions).
	var lid topology.LinkID = -1
	for _, l := range g.Links {
		if g.Class(l) == topology.StubStub {
			lid = l.ID
			break
		}
	}
	rev, _ := g.FindLink(g.Links[lid].Dst, g.Links[lid].Src)
	at := sched.Now()
	d.SetLinkDown(lid, true)
	d.SetLinkDown(rev.ID, true)
	for !d.Converged() && sched.Now().Sub(at) < vtime.Duration(120*vtime.Second) {
		sched.RunFor(500 * vtime.Millisecond)
	}
	el := sched.Now().Sub(at)
	if !d.Converged() {
		t.Fatalf("did not reconverge within 120s")
	}
	if el > 20*vtime.Second {
		t.Errorf("reconvergence took %v; triggered updates should beat the 30s period", el)
	}
}

// dvSnapshot renders every home-pair route as one comparable string.
func dvSnapshot(d *DV, nVNs int) string {
	var b strings.Builder
	for i := 0; i < nVNs; i++ {
		for j := 0; j < nVNs; j++ {
			r, ok := d.Table().Lookup(pipes.VN(i), pipes.VN(j))
			fmt.Fprintf(&b, "%d->%d ok=%v route=%v\n", i, j, ok, r)
		}
	}
	return b.String()
}

// ringSegment returns both directions of the first router-to-router link.
func ringSegment(g *topology.Graph) (topology.LinkID, topology.LinkID) {
	for _, l := range g.Links {
		if g.Class(l) == topology.StubStub {
			rev, ok := g.FindLink(l.Dst, l.Src)
			if !ok {
				panic("ring segment has no reverse")
			}
			return l.ID, rev.ID
		}
	}
	panic("no ring segment")
}

// Reconvergence is deterministic: the table the protocol settles on after a
// failure/heal cycle does not depend on the order the two directions of the
// cut were reported in, nor on how coarsely the scheduler was stepped while
// it reconverged. Link dynamics replays depend on this — the same scripted
// cut must yield identical routes in every execution mode.
func TestDVReconvergenceDeterministic(t *testing.T) {
	run := func(reverseCut bool, step vtime.Duration) (string, string) {
		g := topology.Ring(6, 2, attrs(20, 5), attrs(2, 1))
		homes := g.Clients()
		sched := vtime.NewScheduler()
		d := New(sched, g, homes, Config{})
		d.Start()
		sched.RunUntil(vtime.Time(30 * vtime.Second))
		if !d.Converged() {
			t.Fatal("not converged before the cut")
		}
		fwd, rev := ringSegment(g)
		if reverseCut {
			fwd, rev = rev, fwd
		}
		d.SetLinkDown(fwd, true)
		d.SetLinkDown(rev, true)
		for sched.Now() < vtime.Time(120*vtime.Second) {
			sched.RunFor(step)
		}
		if !d.Converged() {
			t.Fatal("not reconverged after the cut")
		}
		failed := dvSnapshot(d, len(homes))
		d.SetLinkDown(fwd, false)
		d.SetLinkDown(rev, false)
		for sched.Now() < vtime.Time(240*vtime.Second) {
			sched.RunFor(step)
		}
		if !d.Converged() {
			t.Fatal("not reconverged after the heal")
		}
		return failed, dvSnapshot(d, len(homes))
	}
	failA, healA := run(false, 500*vtime.Millisecond)
	failB, healB := run(true, 7300*vtime.Millisecond)
	if failA != failB {
		t.Errorf("post-failure tables differ across recompute orderings:\n%s\nvs\n%s", failA, failB)
	}
	if healA != healB {
		t.Errorf("post-heal tables differ across recompute orderings:\n%s\nvs\n%s", healA, healB)
	}
}

// A cut that isolates a router leaves its VN unreachable — lookups fail
// rather than loop — and the protocol still reports convergence (the
// shortest-path reference also sees no route). Healing restores every
// pre-failure metric; routes may differ only on equal-cost ties, where DV
// (like RIP) keeps the incumbent next hop.
func TestDVUnreachablePartition(t *testing.T) {
	g := topology.Ring(4, 1, attrs(20, 5), attrs(2, 1))
	homes := g.Clients()
	sched := vtime.NewScheduler()
	d := New(sched, g, homes, Config{})
	d.Start()
	sched.RunUntil(vtime.Time(30 * vtime.Second))
	if !d.Converged() {
		t.Fatal("not converged initially")
	}
	metrics := func() string {
		var b strings.Builder
		for _, src := range homes {
			for _, dst := range homes {
				fmt.Fprintf(&b, "%d->%d %.9f\n", src, dst, d.Metric(src, dst))
			}
		}
		return b.String()
	}
	before := metrics()

	// Cut every ring segment incident to one router, isolating it (its
	// access link still stands, so its VN keeps a home with no way out).
	var island topology.NodeID = -1
	for _, l := range g.Links {
		if g.Class(l) == topology.StubStub {
			island = l.Src
			break
		}
	}
	var cut []topology.LinkID
	for _, l := range g.Links {
		if g.Class(l) == topology.StubStub && (l.Src == island || l.Dst == island) {
			cut = append(cut, l.ID)
		}
	}
	if len(cut) != 4 {
		t.Fatalf("expected 4 directed ring segments at the island, got %d", len(cut))
	}
	for _, lid := range cut {
		d.SetLinkDown(lid, true)
	}
	sched.RunUntil(vtime.Time(180 * vtime.Second))
	if !d.Converged() {
		t.Fatal("did not converge with the router isolated")
	}
	// The island's VN: the client whose access link lands on the island.
	islandVN := -1
	for i, home := range homes {
		if home == island {
			islandVN = i
		}
	}
	// homes are client NodeIDs; resolve via the access link instead when
	// homes name clients rather than routers.
	if islandVN == -1 {
		for i, home := range homes {
			for _, l := range g.Links {
				if l.Src == home && l.Dst == island {
					islandVN = i
				}
			}
		}
	}
	if islandVN == -1 {
		t.Fatal("no VN homed at the isolated router")
	}
	for j := range homes {
		if j == islandVN {
			continue
		}
		if _, ok := d.Table().Lookup(pipes.VN(j), pipes.VN(islandVN)); ok {
			t.Errorf("lookup %d->%d returned a route across the partition", j, islandVN)
		}
		if _, ok := d.Table().Lookup(pipes.VN(islandVN), pipes.VN(j)); ok {
			t.Errorf("lookup %d->%d returned a route across the partition", islandVN, j)
		}
	}

	for _, lid := range cut {
		d.SetLinkDown(lid, false)
	}
	sched.RunUntil(vtime.Time(420 * vtime.Second))
	if !d.Converged() {
		t.Fatal("did not reconverge after the heal")
	}
	if after := metrics(); after != before {
		t.Errorf("post-heal metrics differ from pre-failure metrics:\n%s\nvs\n%s", after, before)
	}
	for i := range homes {
		for j := range homes {
			if _, ok := d.Table().Lookup(pipes.VN(i), pipes.VN(j)); !ok {
				t.Errorf("lookup %d->%d unroutable after heal", i, j)
			}
		}
	}
}

func TestDVDrivesLiveEmulation(t *testing.T) {
	// Wire the DV table into an emulator: a UDP stream sees an outage on
	// link failure and recovers once the protocol reconverges — the
	// convergence transient the perfect-routing assumption hides.
	g := topology.New()
	a := g.AddNode(topology.Client, "a")
	top := g.AddNode(topology.Stub, "top")
	bot := g.AddNode(topology.Stub, "bot")
	b := g.AddNode(topology.Client, "b")
	f1, f1r := g.AddDuplex(a, top, attrs(10, 1))
	g.AddDuplex(top, b, attrs(10, 1))
	g.AddDuplex(a, bot, attrs(10, 5))
	g.AddDuplex(bot, b, attrs(10, 5))

	bnd, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, bnd, nil, emucore.IdealProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := New(sched, g, bnd.VNHome, Config{AdvertiseEvery: 2 * vtime.Second})
	emu.SetTable(d.Table())
	d.Start()

	h0 := netstack.NewHost(0, sched, emu, emu)
	h1 := netstack.NewHost(1, sched, emu, emu)
	var arrivals []vtime.Time
	h1.OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) {
		arrivals = append(arrivals, sched.Now())
	})
	s, _ := h0.OpenUDP(0, nil)
	tick := vtime.NewTicker(sched, 50*vtime.Millisecond, func() {
		s.SendTo(netstack.Endpoint{VN: 1, Port: 9}, 100, nil)
	})
	// Let the protocol converge, then start traffic, then cut the link.
	sched.RunUntil(vtime.Time(10 * vtime.Second))
	tick.Start()
	failAt := vtime.Time(20 * vtime.Second)
	sched.At(failAt, func() {
		d.SetLinkDown(f1, true)
		d.SetLinkDown(f1r, true)
		// Packets already following stale routes onto the dead link must
		// vanish: model the cut at the pipe level too.
		p := emu.Pipe(pipes.ID(f1)).Params()
		p.LossRate = 0.999999
		emu.SetPipeParams(pipes.ID(f1), p)
	})
	sched.RunUntil(vtime.Time(60 * vtime.Second))
	tick.Stop()

	if len(arrivals) == 0 {
		t.Fatal("no traffic delivered")
	}
	// Find the outage: the largest inter-arrival gap after the failure.
	var outage vtime.Duration
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < failAt {
			continue
		}
		if gap := arrivals[i].Sub(arrivals[i-1]); gap > outage {
			outage = gap
		}
	}
	if outage < vtime.Duration(100*vtime.Millisecond) {
		t.Errorf("no visible outage (%v) — convergence transient missing", outage)
	}
	if outage > vtime.Duration(15*vtime.Second) {
		t.Errorf("outage %v too long — protocol failed to reroute", outage)
	}
	last := arrivals[len(arrivals)-1]
	if last < vtime.Time(55*vtime.Second) {
		t.Errorf("traffic never recovered: last arrival %v", last)
	}
}

// TestDVConvergesOnAsymmetricLatencies: a route is priced by the links it
// crosses, in the direction it crosses them. A→B costs 1 ms but B→A 10 ms, so
// B's best route to A is the 4 ms detour through C — and Converged measures
// distance *to* each home, not from it.
func TestDVConvergesOnAsymmetricLatencies(t *testing.T) {
	g := topology.New()
	a := g.AddNode(topology.Client, "a")
	b := g.AddNode(topology.Client, "b")
	c := g.AddNode(topology.Client, "c")
	g.AddLink(a, b, attrs(10, 1))
	g.AddLink(b, a, attrs(10, 10))
	g.AddDuplex(b, c, attrs(10, 2))
	g.AddDuplex(c, a, attrs(10, 2))
	sched := vtime.NewScheduler()
	d := New(sched, g, g.Clients(), Config{})
	d.Start()
	sched.RunUntil(vtime.Time(60 * vtime.Second))
	if got, want := d.Metric(a, b), 0.001+1e-6; math.Abs(got-want) > 1e-9 {
		t.Errorf("metric a->b = %v, want %v (the direct 1 ms link)", got, want)
	}
	if got, want := d.Metric(b, a), 0.004+2e-6; math.Abs(got-want) > 1e-9 {
		t.Errorf("metric b->a = %v, want %v (through c, around the 10 ms link)", got, want)
	}
	if !d.Converged() {
		t.Error("DV did not converge on asymmetric latencies")
	}
	r, ok := d.Table().Lookup(1, 0)
	if !ok || len(r) != 2 || g.Links[r[0]].Dst != c {
		t.Errorf("route b->a = %v ok=%v, want the two hops through c", r, ok)
	}
}
