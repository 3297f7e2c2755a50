package modelnet_test

// Tests for the parallel core-cluster runtime (internal/parcore) through
// the facade: the determinism contract (same seed ⇒ identical counters and
// delivery times in sequential and parallel modes under an event-exact
// profile), run-to-run reproducibility, and closed-loop TCP over the
// parallel cluster.

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"modelnet"
	"modelnet/internal/bind"
	"modelnet/internal/dynamics"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// ringRun drives a jittered CBR UDP workload over a 8×4 ring — every VN
// streams to the diametrically opposite VN — and returns the conservation
// counters, the sorted multiset of delivery times, and the merged accuracy
// tracker.
func ringRun(t *testing.T, parallel bool, cores int, seed int64) (emucore.Totals, []int64, emucore.Accuracy) {
	t.Helper()
	g := modelnet.Ring(8, 4, attrs(20, 5), attrs(5, 1))
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(g, modelnet.Options{
		Cores:    cores,
		Parallel: parallel,
		Profile:  &ideal,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var times []int64
	em.OnDeliver(func(pkt *pipes.Packet, at modelnet.Time) {
		mu.Lock()
		times = append(times, int64(at))
		mu.Unlock()
	})
	hosts := em.NewHosts()
	n := len(hosts)
	rng := rand.New(rand.NewSource(seed))
	for v, h := range hosts {
		h.OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) {})
		s, err := h.OpenUDP(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		dst := modelnet.Endpoint{VN: modelnet.VN((v + n/2) % n), Port: 9}
		// Jittered per-flow phase and period: nanosecond-distinct event
		// times keep cross-core interleavings unambiguous. Senders stop
		// before the run ends so every packet drains (counters don't
		// depend on where the cutoff slices in-flight traffic).
		start := vtime.Duration(rng.Int63n(int64(5 * vtime.Millisecond)))
		period := 8*vtime.Millisecond + vtime.Duration(rng.Int63n(int64(2*vtime.Millisecond)))
		size := 200 + rng.Intn(1000)
		sched := em.SchedulerOf(modelnet.VN(v))
		sendEnd := vtime.Time(0).Add(modelnet.Seconds(2.5))
		var send func()
		send = func() {
			s.SendTo(dst, size, nil)
			if sched.Now().Add(period) < sendEnd {
				sched.After(period, send)
			}
		}
		sched.After(start, send)
	}
	em.RunFor(modelnet.Seconds(3))
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return em.Totals(), times, em.AccuracyStats()
}

func TestParallelMatchesSequential(t *testing.T) {
	const seed = 42
	seqT, seqTimes, seqAcc := ringRun(t, false, 4, seed)
	parT, parTimes, parAcc := ringRun(t, true, 4, seed)

	if seqT != parT {
		t.Errorf("counters diverge:\n sequential %+v\n parallel   %+v", seqT, parT)
	}
	if seqT.Injected == 0 || seqT.Delivered == 0 {
		t.Fatalf("workload idle: %+v", seqT)
	}
	if len(seqTimes) != len(parTimes) {
		t.Fatalf("delivery count: sequential %d, parallel %d", len(seqTimes), len(parTimes))
	}
	for i := range seqTimes {
		if seqTimes[i] != parTimes[i] {
			t.Fatalf("delivery-time multiset diverges at %d: %d vs %d", i, seqTimes[i], parTimes[i])
		}
	}
	if seqAcc != parAcc {
		t.Errorf("accuracy diverges: %+v vs %+v", seqAcc, parAcc)
	}
}

func TestParallelDeterministicAcrossRuns(t *testing.T) {
	a, at, _ := ringRun(t, true, 4, 7)
	b, bt, _ := ringRun(t, true, 4, 7)
	if a != b {
		t.Errorf("parallel run not reproducible: %+v vs %+v", a, b)
	}
	if len(at) != len(bt) {
		t.Fatalf("delivery counts differ: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Fatalf("delivery times differ at %d", i)
		}
	}
}

func TestParallelConservesUnderDefaultProfile(t *testing.T) {
	// With a resource model the parallel mode is lazy (handoffs emitted at
	// exit time). It must still conserve packets and stay reproducible.
	run := func() emucore.Totals {
		g := modelnet.Ring(6, 3, attrs(10, 5), attrs(2, 1))
		em, err := modelnet.Run(g, modelnet.Options{Cores: 3, Parallel: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		hosts := em.NewHosts()
		for v, h := range hosts {
			h.OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) {})
			s, _ := h.OpenUDP(0, nil)
			dst := modelnet.Endpoint{VN: modelnet.VN((v + 7) % len(hosts)), Port: 9}
			sched := em.SchedulerOf(modelnet.VN(v))
			off := vtime.Duration(v) * vtime.Millisecond
			sched.After(off, func() { s.SendTo(dst, 600, nil) })
		}
		em.RunFor(modelnet.Seconds(2))
		return em.Totals()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("lazy parallel run not reproducible: %+v vs %+v", a, b)
	}
	if a.Injected != a.Delivered+a.PhysDrops+a.VirtualDrops+uint64(a.InFlight) {
		t.Errorf("conservation violated: %+v", a)
	}
	if a.Delivered == 0 {
		t.Errorf("nothing delivered: %+v", a)
	}
}

func TestParallelTCPTransfer(t *testing.T) {
	// Closed-loop TCP across the parallel cluster: a transfer between
	// opposite sides of the ring completes and delivers every byte.
	g := modelnet.Ring(6, 2, attrs(20, 5), attrs(10, 1))
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(g, modelnet.Options{Cores: 3, Parallel: true, Profile: &ideal, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := em.NewHost(0), em.NewHost(6)
	got := 0
	dst.Listen(80, func(c *netstack.Conn) netstack.Handlers {
		return netstack.Handlers{OnData: func(c *netstack.Conn, n int, data []byte) { got += n }}
	})
	c := src.Dial(modelnet.Endpoint{VN: 6, Port: 80}, netstack.Handlers{})
	c.WriteCount(200_000)
	c.Close()
	em.RunFor(modelnet.Seconds(30))
	if got != 200_000 {
		t.Fatalf("transferred %d of 200000 bytes", got)
	}
}

// TestRerouteKeepsTheRouteCache: a run bound with the bounded route cache —
// chosen because the O(n²) matrix does not fit — must still hold one after a
// link failure reroutes it, sequentially and on every shard of the parallel
// cluster, within its capacity and routing around the failed link exactly as
// a matrix built for the degraded graph does.
func TestRerouteKeepsTheRouteCache(t *testing.T) {
	const capacity = 24
	g := modelnet.Ring(6, 2, attrs(20, 5), attrs(5, 1))
	fail := -1
	for _, l := range g.Links {
		if g.Nodes[l.Src].Kind != topology.Client && g.Nodes[l.Dst].Kind != topology.Client {
			fail = int(l.ID)
			break
		}
	}
	down := dynamics.At(50 * vtime.Millisecond)
	down.Down = true
	degraded := g.Clone()
	degraded.Links[fail].Attr.LatencySec = bind.InfinityLatencySec
	want, err := bind.BuildMatrix(degraded, g.Clients())
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := bind.BuildMatrix(g, g.Clients())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(pristine, want) {
		t.Fatalf("failing link %d moves no route; the test would prove nothing", fail)
	}
	for _, parallel := range []bool{false, true} {
		ideal := modelnet.IdealProfile()
		em, err := modelnet.Run(g, modelnet.Options{
			Cores: 2, Parallel: parallel, Profile: &ideal, RouteCache: capacity,
			Dynamics: &modelnet.DynamicsSpec{
				Profiles:     []modelnet.DynamicsProfile{{Link: fail, Steps: []modelnet.DynamicsStep{down}}},
				Reroute:      true,
				RerouteDelay: 10 * vtime.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		em.RunFor(modelnet.Seconds(0.2))
		shards := []*emucore.Emulator{em.Emu}
		if parallel {
			shards = []*emucore.Emulator{em.Par.ShardEmu(0), em.Par.ShardEmu(1)}
		}
		seen := map[*bind.Cache]bool{}
		for i, emu := range shards {
			c, ok := emu.Binding().Table.(*bind.Cache)
			if !ok {
				t.Fatalf("parallel=%v shard %d: table after the reroute is %T, want the *bind.Cache the run was bound with",
					parallel, i, emu.Binding().Table)
			}
			if seen[c] {
				t.Fatalf("parallel=%v: shards share one mutable cache", parallel)
			}
			seen[c] = true
			n := c.NumVNs()
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					got, gok := c.Lookup(pipes.VN(s), pipes.VN(d))
					w, wok := want.Lookup(pipes.VN(s), pipes.VN(d))
					if gok != wok || !reflect.DeepEqual(got, w) {
						t.Fatalf("parallel=%v shard %d: route %d->%d after the reroute = %v, degraded-graph matrix says %v", parallel, i, s, d, got, w)
					}
					if c.Len() > capacity {
						t.Fatalf("parallel=%v shard %d: cache grew to %d routes, capacity %d", parallel, i, c.Len(), capacity)
					}
				}
			}
		}
	}
}
