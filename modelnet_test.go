package modelnet_test

import (
	"testing"

	"modelnet"
	"modelnet/internal/bind"
	"modelnet/internal/experiments"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

func attrs(mbps, ms float64) modelnet.LinkAttrs {
	return modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(mbps), LatencySec: modelnet.Ms(ms), QueuePkts: 30}
}

func TestPipelinePhases(t *testing.T) {
	g := modelnet.Ring(6, 3, attrs(20, 5), attrs(2, 1))
	em, err := modelnet.Run(g, modelnet.Options{
		Distill: modelnet.DistillSpec{Mode: modelnet.WalkIn, WalkIn: 1},
		Cores:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if em.NumVNs() != 18 {
		t.Errorf("VNs = %d, want 18", em.NumVNs())
	}
	// Last-mile distillation: 18 duplex access links preserved + mesh.
	if em.Distilled.PreservedLinks != 36 {
		t.Errorf("preserved = %d, want 36", em.Distilled.PreservedLinks)
	}
	if em.Distilled.MeshLinks != 6*5 {
		t.Errorf("mesh = %d, want 30", em.Distilled.MeshLinks)
	}
	if em.Emu.Cores() != 2 {
		t.Errorf("cores = %d", em.Emu.Cores())
	}
	lm := em.Assignment.LoadMetrics()
	if lm.LinksPerCore[0]+lm.LinksPerCore[1] != em.Distilled.Graph.NumLinks() {
		t.Errorf("assignment does not cover all pipes: %v", lm.LinksPerCore)
	}
}

func TestPipelineRejectsBadTopology(t *testing.T) {
	g := modelnet.NewGraph()
	g.AddNode(topology.Client, "lonely")
	if _, err := modelnet.Run(g, modelnet.Options{}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

// TestRingSetUpComputesNoRouteAllocs: set-up binds the 400-VN ring to a route
// cache and computes no route; the ring's 400 CBR flows (VN v → v + n/2) then
// compute one route each on first use, and the default capacity evicts none.
func TestRingSetUpComputesNoRouteAllocs(t *testing.T) {
	spec := experiments.RingCBRSpec{Routers: 20, VNsPerRouter: 20, PacketsPerSec: 200, PacketBytes: 1000, DurationSec: 0.1, Seed: 11}
	em, err := modelnet.Run(spec.Topology(), modelnet.Options{Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := em.Emu.Binding().Table.(*bind.Cache)
	if !ok {
		t.Fatalf("the run's table is %T, want a *bind.Cache", em.Emu.Binding().Table)
	}
	if c.Misses != 0 || c.Len() != 0 || c.Cap() != bind.DefaultRouteCache {
		t.Fatalf("after set-up: %d routes computed, %d cached, capacity %d; want 0, 0, %d", c.Misses, c.Len(), c.Cap(), bind.DefaultRouteCache)
	}
	if err := spec.Install(em.NumVNs(), func(pipes.VN) bool { return true }, em.NewHost, em.SchedulerOf); err != nil {
		t.Fatal(err)
	}
	em.RunFor(modelnet.Seconds(0.1))
	if em.Totals().Delivered == 0 || c.Misses != 400 || c.Len() != 400 {
		t.Fatalf("after 0.1 s of %d flows: %d delivered, %d routes computed, %d cached; want >0, 400, 400", em.NumVNs(), em.Totals().Delivered, c.Misses, c.Len())
	}
}

// ringSetUpAllocBound is TestRingSetUpAllocs' bound. Allocating per kind
// leaves about 8 allocations per VN (its host and stack closure, two sockets
// and their slice, its name, its flow's send and its first event) — 3 329 in
// all; one more per pipe, host map or per-node adjacency list would double it.
const ringSetUpAllocBound = 3400

// TestRingSetUpAllocs: the 400-VN ring's whole set-up — topology, Run and the
// CBR install — allocates per kind, not per pipe, link or host map.
func TestRingSetUpAllocs(t *testing.T) {
	spec := experiments.RingCBRSpec{Routers: 20, VNsPerRouter: 20, PacketsPerSec: 200, PacketBytes: 1000, DurationSec: 2, Seed: 11}
	ideal := modelnet.IdealProfile()
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		var em *modelnet.Emulation
		if em, err = modelnet.Run(spec.Topology(), modelnet.Options{Seed: spec.Seed, Profile: &ideal}); err == nil {
			err = spec.Install(em.NumVNs(), func(pipes.VN) bool { return true }, em.NewHost, em.SchedulerOf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ring set-up: %.0f allocations", allocs)
	if allocs > ringSetUpAllocBound {
		t.Fatalf("ring set-up made %.0f allocations, bound %d", allocs, ringSetUpAllocBound)
	}
}

func TestEndToEndTransferThroughFacade(t *testing.T) {
	g := modelnet.Star(4, attrs(10, 5))
	em, err := modelnet.Run(g, modelnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hosts := em.NewHosts()
	if len(hosts) != 4 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	got := 0
	hosts[1].Listen(80, func(c *netstack.Conn) netstack.Handlers {
		return netstack.Handlers{OnData: func(c *netstack.Conn, n int, data []byte) { got += n }}
	})
	c := hosts[0].Dial(modelnet.Endpoint{VN: 1, Port: 80}, netstack.Handlers{})
	c.WriteCount(100_000)
	c.Close()
	em.RunFor(modelnet.Seconds(10))
	if got != 100_000 {
		t.Fatalf("transferred %d", got)
	}
	if em.Emu.Delivered == 0 || em.Emu.Accuracy.Count == 0 {
		t.Error("emulator stats empty")
	}
	// Accuracy bound: 2 hops, default tick.
	if !em.Emu.Accuracy.WithinBound(3 * modelnet.DefaultProfile().Tick) {
		t.Errorf("lag %v over bound", em.Emu.Accuracy.MaxLag)
	}
}

func TestNewHostIdempotent(t *testing.T) {
	g := modelnet.Star(2, attrs(10, 1))
	em, err := modelnet.Run(g, modelnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if em.NewHost(0) != em.NewHost(0) {
		t.Error("NewHost returned two stacks for one VN")
	}
}

// countingInjector wraps the emulator, counting injections.
type countingInjector struct {
	inner interface {
		Inject(src, dst pipes.VN, size int, payload any) bool
	}
	n int
}

func (c *countingInjector) Inject(src, dst pipes.VN, size int, payload any) bool {
	c.n++
	return c.inner.Inject(src, dst, size, payload)
}

func TestNewHostViaAgreesWithNewHost(t *testing.T) {
	g := modelnet.Star(3, attrs(10, 1))
	em, err := modelnet.Run(g, modelnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := &countingInjector{inner: em.Emu}
	h := em.NewHostVia(0, inj)
	// NewHost after NewHostVia returns the same (wrapped) stack: one VN,
	// one stack, and the wrapper stays on the injection path.
	if em.NewHost(0) != h {
		t.Error("NewHost did not return the stack created by NewHostVia")
	}
	s, _ := h.OpenUDP(0, nil)
	em.NewHost(1).OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) {})
	s.SendTo(modelnet.Endpoint{VN: 1, Port: 9}, 100, nil)
	em.RunFor(modelnet.Seconds(1))
	if inj.n != 1 {
		t.Errorf("wrapper saw %d injections, want 1", inj.n)
	}
	// The reverse order is a programming error: a wrapper installed after
	// the plain stack exists would silently never see traffic.
	defer func() {
		if recover() == nil {
			t.Error("NewHostVia after NewHost did not panic")
		}
	}()
	em.NewHostVia(1, inj)
}

func TestDistillationModesThroughFacade(t *testing.T) {
	g := modelnet.Ring(8, 2, attrs(20, 5), attrs(2, 1))
	for _, spec := range []modelnet.DistillSpec{
		{Mode: modelnet.HopByHop},
		{Mode: modelnet.EndToEnd},
		{Mode: modelnet.WalkIn, WalkIn: 1},
		{Mode: modelnet.WalkOut, WalkIn: 1, WalkOut: 1},
	} {
		em, err := modelnet.Run(g, modelnet.Options{Distill: spec})
		if err != nil {
			t.Fatalf("%v: %v", spec.Mode, err)
		}
		// Traffic flows under every mode.
		delivered := false
		h0, h1 := em.NewHost(0), em.NewHost(1)
		h1.OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) { delivered = true })
		s, _ := h0.OpenUDP(0, nil)
		s.SendTo(modelnet.Endpoint{VN: 1, Port: 9}, 100, nil)
		em.RunFor(modelnet.Seconds(1))
		if !delivered {
			t.Errorf("%v: packet not delivered", spec.Mode)
		}
	}
}

func TestSeedsAreDeterministic(t *testing.T) {
	run := func() (uint64, pipes.VN) {
		g := modelnet.Ring(6, 3, attrs(20, 5), attrs(2, 1))
		em, err := modelnet.Run(g, modelnet.Options{Seed: 99, Cores: 3})
		if err != nil {
			t.Fatal(err)
		}
		var last pipes.VN
		for v := 0; v < em.NumVNs(); v++ {
			v := v
			h := em.NewHost(modelnet.VN(v))
			h.OpenUDP(9, func(from netstack.Endpoint, dg *netstack.Datagram) { last = modelnet.VN(v) })
		}
		for v := 0; v < em.NumVNs(); v++ {
			h := em.NewHost(modelnet.VN(v))
			s, _ := h.OpenUDP(0, nil)
			s.SendTo(modelnet.Endpoint{VN: modelnet.VN((v + 7) % em.NumVNs()), Port: 9}, 500, nil)
		}
		em.RunFor(modelnet.Seconds(2))
		return em.Emu.Delivered, last
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", d1, l1, d2, l2)
	}
}
