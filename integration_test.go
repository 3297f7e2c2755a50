package modelnet_test

// Whole-system integration tests: every subsystem at once, the way a real
// experiment composes them.

import (
	"testing"

	"modelnet"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

// TestKitchenSink runs a transit-stub topology through last-mile
// distillation onto two cores, TCP and UDP
// workloads, mid-run bandwidth reduction and latency perturbation — and checks
// global invariants at the end.
func TestKitchenSink(t *testing.T) {
	cfg := topology.TransitStubConfig{
		TransitDomains: 1, TransitPerDomain: 4,
		StubsPerTransit: 2, RoutersPerStub: 3, ClientsPerStub: 4,
		TransitTransit: topology.LinkAttrs{BandwidthBps: topology.Mbps(100), LatencySec: topology.Ms(20), QueuePkts: 60},
		TransitStub:    topology.LinkAttrs{BandwidthBps: topology.Mbps(20), LatencySec: topology.Ms(5), QueuePkts: 50},
		StubStub:       topology.LinkAttrs{BandwidthBps: topology.Mbps(10), LatencySec: topology.Ms(2), QueuePkts: 50},
		ClientStub:     topology.LinkAttrs{BandwidthBps: topology.Mbps(2), LatencySec: topology.Ms(1), QueuePkts: 20},
		Seed:           77,
	}
	g := topology.TransitStub(cfg)
	em, err := modelnet.Run(g, modelnet.Options{
		Distill: modelnet.DistillSpec{Mode: modelnet.WalkIn, WalkIn: 1},
		Cores:   2,
		Seed:    77,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := em.NumVNs()
	hosts := em.NewHosts()

	// TCP transfers between random-ish pairs.
	const transfer = 200_000
	received := make([]int, n)
	for i := 0; i < n/2; i++ {
		dst := n/2 + i
		di := dst
		hosts[dst].Listen(80, func(c *netstack.Conn) netstack.Handlers {
			return netstack.Handlers{OnData: func(c *netstack.Conn, k int, data []byte) { received[di] += k }}
		})
		src := hosts[i]
		em.Sched.At(modelnet.Time(int64(i)*int64(100*vtime.Millisecond)), func() {
			b := traffic.StartBulk(src, netstack.Endpoint{VN: modelnet.VN(di), Port: 80}, transfer)
			_ = b
		})
	}
	// UDP chatter over the same fabric.
	udpGot := 0
	hosts[0].OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) { udpGot++ })
	var tickers []*vtime.Ticker
	for i := 1; i < n; i++ {
		sock, _ := hosts[i].OpenUDP(0, nil)
		to := netstack.Endpoint{VN: 0, Port: 9}
		tk := vtime.NewTicker(em.Sched, 500*vtime.Millisecond, func() {
			sock.SendTo(to, 100, nil)
		})
		tk.Start()
		tickers = append(tickers, tk)
	}
	// Background load arrives mid-run and clears later: every pipe keeps
	// 60 % of its bandwidth between t=5 s and t=15 s.
	base := make([]pipes.Params, em.Emu.NumPipes())
	for p := range base {
		base[p] = em.Emu.Pipe(pipes.ID(p)).Params()
	}
	em.Sched.At(modelnet.Time(modelnet.Seconds(5)), func() {
		for p, params := range base {
			params.BandwidthBps *= 0.6
			em.Emu.SetPipeParams(pipes.ID(p), params)
		}
	})
	em.Sched.At(modelnet.Time(modelnet.Seconds(15)), func() {
		for p, params := range base {
			em.Emu.SetPipeParams(pipes.ID(p), params)
		}
	})
	// Latency perturbation, ACDC-style.
	pert := traffic.NewPerturber(em.Emu, 77)
	em.Sched.At(modelnet.Time(modelnet.Seconds(10)), func() { pert.JitterLatency(0.25, 0.25) })
	em.Sched.At(modelnet.Time(modelnet.Seconds(20)), pert.Restore)

	em.RunFor(modelnet.Seconds(85))
	for _, tk := range tickers {
		tk.Stop()
	}
	em.RunFor(modelnet.Seconds(5)) // drain

	for i := n / 2; i < n; i++ {
		if received[i] != transfer {
			t.Errorf("flow to VN %d delivered %d of %d", i, received[i], transfer)
		}
	}
	if udpGot == 0 {
		t.Error("no UDP delivered")
	}
	tot := em.Emu.Totals()
	if tot.InFlight != 0 {
		t.Errorf("packets still in flight at quiescence: %d", tot.InFlight)
	}
	if tot.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Accuracy holds under the full mix: last-mile paths are ≤3 pipes.
	if !em.Emu.Accuracy.WithinBound(4 * modelnet.DefaultProfile().Tick) {
		t.Errorf("accuracy violated: max lag %v", em.Emu.Accuracy.MaxLag)
	}
}

// TestTickBoundaryInvariant: under any non-ideal profile, every delivery
// lands exactly on a scheduler tick — the quantization the paper's 10 kHz
// timer imposes.
func TestTickBoundaryInvariant(t *testing.T) {
	g := modelnet.Star(6, modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(3), QueuePkts: 30})
	prof := modelnet.DefaultProfile()
	em, err := modelnet.Run(g, modelnet.Options{Profile: &prof, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hosts := em.NewHosts()
	violations := 0
	for i := range hosts {
		i := i
		hosts[i].OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) {
			if em.Now()%modelnet.Time(prof.Tick) != 0 {
				violations++
			}
			_ = i
		})
	}
	for i := range hosts {
		sock, _ := hosts[i].OpenUDP(0, nil)
		for j := 0; j < 50; j++ {
			dst := (i + j + 1) % len(hosts)
			if dst == i {
				continue // loopback bypasses the core (kernel-local), so no tick applies
			}
			to := netstack.Endpoint{VN: modelnet.VN(dst), Port: 9}
			sz := 100 + j*17
			em.Sched.At(modelnet.Time(int64(j)*int64(777*vtime.Microsecond)), func() {
				sock.SendTo(to, sz, nil)
			})
		}
	}
	em.RunFor(modelnet.Seconds(5))
	if violations > 0 {
		t.Errorf("%d deliveries off tick boundaries", violations)
	}
	if em.Emu.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
