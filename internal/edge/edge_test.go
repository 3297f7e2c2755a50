package edge

import (
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

func TestEffMonotone(t *testing.T) {
	sched := vtime.NewScheduler()
	m := NewMachine(sched, DefaultMachineConfig())
	var prev float64 = 2
	for _, n := range []int{1, 2, 4, 16, 100} {
		m.nprocs = n
		e := m.eff()
		if e >= prev {
			t.Errorf("eff(%d) = %v not decreasing (prev %v)", n, e, prev)
		}
		if e <= 0 || e > 1 {
			t.Errorf("eff(%d) = %v out of range", n, e)
		}
		prev = e
	}
}

func TestEffCalibration(t *testing.T) {
	// Break-even compute budget ≈ linkPayloadCap instructions/byte at each
	// multiplexing degree: check the fitted anchor points within 2
	// instructions/byte of the paper's 76/73/65.
	sched := vtime.NewScheduler()
	cfg := DefaultMachineConfig()
	m := NewMachine(sched, cfg)
	// Payload capacity of the 100 Mb/s link for 1500 B packets with UDP
	// headers: 1500/1528 of 100 Mb/s => bytes/s.
	payloadBps := cfg.LinkBps * 1500 / 1528 / 8
	anchor := map[int]float64{1: 76, 2: 73, 100: 65}
	for n, want := range anchor {
		m.nprocs = n
		// CPU-side bytes/s at compute c instr/byte:
		// cpuBytes = CPUHz*eff / (c + kernel/1500); break-even at payloadBps.
		c := cfg.CPUHz*m.eff()/payloadBps - cfg.KernelPerPacket/1500
		if c < want-2 || c > want+2 {
			t.Errorf("break-even(%d) = %.1f instr/byte, want ≈%v", n, c, want)
		}
	}
}

func TestExecSerializes(t *testing.T) {
	sched := vtime.NewScheduler()
	cfg := DefaultMachineConfig()
	cfg.OverheadBase, cfg.OverheadShare, cfg.OverheadLog = 0, 0, 0
	m := NewMachine(sched, cfg)
	m.AddProcess()
	m.AddProcess()
	var done []vtime.Time
	// Two processes each demand 1e6 instructions: at 1 GHz they finish at
	// 1 ms and 2 ms (serialized), not both at 1 ms.
	m.Exec(1e6, func() { done = append(done, sched.Now()) })
	m.Exec(1e6, func() { done = append(done, sched.Now()) })
	sched.Run()
	if len(done) != 2 {
		t.Fatal("exec callbacks lost")
	}
	if done[0] != vtime.Time(1*vtime.Millisecond) || done[1] != vtime.Time(2*vtime.Millisecond) {
		t.Errorf("completion times %v, want 1ms,2ms", done)
	}
}

type countInjector struct {
	n     int
	bytes int
	at    []vtime.Time
	sched *vtime.Scheduler
}

func (c *countInjector) Inject(src, dst pipes.VN, size int, payload any) bool {
	c.n++
	c.bytes += size
	c.at = append(c.at, c.sched.Now())
	return true
}

func TestWrapInjectorSerializesNIC(t *testing.T) {
	sched := vtime.NewScheduler()
	cfg := DefaultMachineConfig()
	cfg.LinkBps = 8e6 // 1 ms per 1000 B packet
	cfg.KernelPerPacket = 0
	m := NewMachine(sched, cfg)
	m.AddProcess()
	sink := &countInjector{sched: sched}
	inj := m.WrapInjector(sink)
	for i := 0; i < 5; i++ {
		inj.Inject(0, 1, 1000, nil)
	}
	sched.Run()
	if sink.n != 5 {
		t.Fatalf("injected %d", sink.n)
	}
	for i := 1; i < len(sink.at); i++ {
		gap := sink.at[i].Sub(sink.at[i-1])
		if gap != vtime.Duration(vtime.Millisecond) {
			t.Errorf("gap %d = %v, want 1ms", i, gap)
		}
	}
}

func TestWrapInjectorDropsOnBacklog(t *testing.T) {
	sched := vtime.NewScheduler()
	cfg := DefaultMachineConfig()
	cfg.LinkBps = 1e6
	cfg.NICBacklog = 2 * vtime.Millisecond
	m := NewMachine(sched, cfg)
	m.AddProcess()
	sink := &countInjector{sched: sched}
	inj := m.WrapInjector(sink)
	accepted := 0
	for i := 0; i < 100; i++ {
		if inj.Inject(0, 1, 1500, nil) {
			accepted++
		}
	}
	if m.NICDrops == 0 {
		t.Error("no NIC drops under backlog")
	}
	if accepted == 100 {
		t.Error("all packets accepted despite tiny link")
	}
	sched.Run()
	if sink.n != accepted {
		t.Errorf("sink got %d, accepted %d", sink.n, accepted)
	}
}

// Integration: hosts on one machine share its NIC, so two senders see
// roughly half the link each even over an uncongested emulated path.
func TestMachineSharedByHosts(t *testing.T) {
	g := topology.Star(3, topology.LinkAttrs{BandwidthBps: 1e9, LatencySec: 0.001, QueuePkts: 100})
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachineConfig()
	cfg.LinkBps = 10e6
	cfg.KernelPerPacket = 0
	m := NewMachine(sched, cfg)
	inj := m.WrapInjector(emu)
	h0 := netstack.NewHost(0, sched, inj, emu)
	h1 := netstack.NewHost(1, sched, inj, emu)
	m.AddProcess()
	m.AddProcess()
	h2 := netstack.NewHost(2, sched, emu, emu)
	rcv := 0
	s, _ := h2.OpenUDP(9, func(from netstack.Endpoint, dg *netstack.Datagram) { rcv += dg.Len })
	_ = s
	s0, _ := h0.OpenUDP(0, nil)
	s1, _ := h1.OpenUDP(0, nil)
	// Each host offers 10 Mb/s: together 20 Mb/s into a 10 Mb/s host NIC.
	for i := 0; i < 800; i++ {
		i := i
		sched.At(vtime.Time(i)*vtime.Time(1200*vtime.Microsecond), func() {
			s0.SendTo(netstack.Endpoint{VN: 2, Port: 9}, 1472, nil)
			s1.SendTo(netstack.Endpoint{VN: 2, Port: 9}, 1472, nil)
		})
	}
	sched.Run()
	dur := 0.96 // 800 * 1.2ms
	gotMbps := float64(rcv*8) / dur / 1e6
	if gotMbps > 10.5 {
		t.Errorf("shared NIC passed %v Mb/s, cap 10", gotMbps)
	}
	if gotMbps < 8 {
		t.Errorf("shared NIC only passed %v Mb/s", gotMbps)
	}
}

func TestNICBacklogDropHorizon(t *testing.T) {
	// The backlog bound is a precise horizon, not just "drops eventually":
	// with a 1 ms-per-packet NIC and a B-ms backlog, an instantaneous
	// burst gets exactly floor(B/tx)+1 packets through — those whose NIC
	// queueing delay is still ≤ B — and every later packet is dropped.
	cases := []struct {
		backlog  vtime.Duration
		accepted int
	}{
		{2 * vtime.Millisecond, 3},
		{5 * vtime.Millisecond, 6},
		{0, 11}, // zero config falls back to the documented 10 ms default
	}
	for _, tc := range cases {
		sched := vtime.NewScheduler()
		cfg := DefaultMachineConfig()
		cfg.LinkBps = 8e6 // 1 ms per 1000 B packet
		cfg.KernelPerPacket = 0
		cfg.NICBacklog = tc.backlog
		m := NewMachine(sched, cfg)
		m.AddProcess()
		sink := &countInjector{sched: sched}
		inj := m.WrapInjector(sink)
		accepted := 0
		for i := 0; i < 40; i++ {
			if inj.Inject(0, 1, 1000, nil) {
				accepted++
			}
		}
		if accepted != tc.accepted {
			t.Errorf("backlog %v: accepted %d of a burst, want %d", tc.backlog, accepted, tc.accepted)
		}
		if got := int(m.NICDrops); got != 40-tc.accepted {
			t.Errorf("backlog %v: NICDrops = %d, want %d", tc.backlog, got, 40-tc.accepted)
		}
		sched.Run()
		if sink.n != accepted {
			t.Errorf("backlog %v: sink got %d, accepted %d", tc.backlog, sink.n, accepted)
		}
	}
}

func TestNICBacklogMeasuresNICQueueingNotCPU(t *testing.T) {
	// The horizon is time queued *for the NIC* after the kernel hands the
	// packet over (txStart - when), not elapsed CPU-queue time: a slow
	// kernel that paces packets out slower than the link drains them must
	// never trip the backlog bound, however deep the CPU queue gets.
	sched := vtime.NewScheduler()
	cfg := DefaultMachineConfig()
	cfg.LinkBps = 8e6                  // 1 ms per 1000 B packet
	cfg.KernelPerPacket = 2e6          // 2 ms of kernel CPU per send
	cfg.NICBacklog = vtime.Duration(1) // 1 ns: any NIC queueing at all drops
	cfg.OverheadBase, cfg.OverheadShare, cfg.OverheadLog = 0, 0, 0
	m := NewMachine(sched, cfg)
	m.AddProcess()
	sink := &countInjector{sched: sched}
	inj := m.WrapInjector(sink)
	for i := 0; i < 20; i++ {
		if !inj.Inject(0, 1, 1000, nil) {
			t.Fatalf("packet %d dropped: CPU queueing charged against the NIC backlog", i)
		}
	}
	if m.NICDrops != 0 {
		t.Errorf("NICDrops = %d behind a slow kernel", m.NICDrops)
	}
	sched.Run()
	if sink.n != 20 {
		t.Errorf("sink got %d of 20", sink.n)
	}
}
