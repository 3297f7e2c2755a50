package traffic

import (
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

type env struct {
	sched *vtime.Scheduler
	emu   *emucore.Emulator
	g     *topology.Graph
	hosts []*netstack.Host
}

func newEnv(t *testing.T, n int, mbps, ms float64) *env {
	t.Helper()
	g := topology.Star(n, topology.LinkAttrs{BandwidthBps: mbps * 1e6, LatencySec: ms * 1e-3, QueuePkts: 50})
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 5)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{sched: sched, emu: emu, g: g}
	for i := 0; i < n; i++ {
		e.hosts = append(e.hosts, netstack.NewHost(pipes.VN(i), sched, emu, emu))
	}
	return e
}

func TestBulkAndSink(t *testing.T) {
	e := newEnv(t, 2, 10, 2)
	sink, err := NewSink(e.hosts[1], 80)
	if err != nil {
		t.Fatal(err)
	}
	StartBulk(e.hosts[0], netstack.Endpoint{VN: 1, Port: 80}, 500_000)
	e.sched.RunUntil(vtime.Time(30 * vtime.Second))
	if sink.TotalBytes != 500_000 {
		t.Fatalf("sink got %d bytes", sink.TotalBytes)
	}
	if len(sink.Flows) != 1 || !sink.Flows[0].Closed {
		t.Errorf("flow state: %+v", sink.Flows)
	}
	thr := sink.Flows[0].Throughput()
	if thr < 6e6 || thr > 10e6 {
		t.Errorf("throughput %v, want near 10 Mb/s", thr)
	}
	s := sink.ThroughputSample()
	if s.N() != 1 {
		t.Errorf("sample n = %d", s.N())
	}
}

func TestCBRRate(t *testing.T) {
	e := newEnv(t, 2, 100, 1)
	var rcvd uint64
	e.hosts[1].OpenUDP(9, func(from netstack.Endpoint, dg *netstack.Datagram) { rcvd += uint64(dg.Len) })
	cbr, err := StartCBR(e.hosts[0], netstack.Endpoint{VN: 1, Port: 9}, 1000, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	e.sched.RunUntil(vtime.Time(10 * vtime.Second))
	cbr.Stop()
	e.sched.Run()
	// 1 Mb/s wire rate for ~10 s ≈ 1.25 MB total incl. headers; payload
	// fraction 1000/1028.
	wantLo, wantHi := uint64(1_100_000), uint64(1_260_000)
	if rcvd < wantLo || rcvd > wantHi {
		t.Errorf("CBR delivered %d bytes, want in [%d,%d]", rcvd, wantLo, wantHi)
	}
}

func TestSynthesizeTrace(t *testing.T) {
	cfg := TraceConfig{
		Duration: 150 * vtime.Second,
		Clients:  120,
		MinRate:  60, MaxRate: 100,
		Seed: 1,
	}
	reqs := Synthesize(cfg)
	// 2.5 min at 60-100 req/s: expect roughly 150*80 = 12000 requests.
	if len(reqs) < 10000 || len(reqs) > 14000 {
		t.Fatalf("trace has %d requests, want ≈12000", len(reqs))
	}
	last := vtime.Time(0)
	clients := map[int]bool{}
	for _, r := range reqs {
		if r.At < last {
			t.Fatal("trace not sorted")
		}
		last = r.At
		if r.Client < 0 || r.Client >= 120 {
			t.Fatalf("client %d out of range", r.Client)
		}
		clients[r.Client] = true
		if r.Size < 256 || r.Size > 1<<20 {
			t.Fatalf("size %d out of range", r.Size)
		}
	}
	if len(clients) < 100 {
		t.Errorf("only %d distinct clients", len(clients))
	}
	// Determinism.
	again := Synthesize(cfg)
	if len(again) != len(reqs) || again[0] != reqs[0] || again[len(again)-1] != reqs[len(reqs)-1] {
		t.Error("trace not deterministic for fixed seed")
	}
}

func TestPipeLoads(t *testing.T) {
	e := newEnv(t, 4, 10, 1)
	m := e.emu.Binding().Table.(*bind.Matrix)
	loads := PipeLoads(m, []Demand{
		{Src: 0, Dst: 1, Bps: 2e6},
		{Src: 0, Dst: 2, Bps: 1e6},
	})
	// VN0's uplink carries both demands: 3 Mb/s.
	r01, _ := m.Lookup(0, 1)
	first := r01[0]
	if loads[first] != 3e6 {
		t.Errorf("uplink load = %v, want 3e6", loads[first])
	}
}

func TestCrossTrafficApplyClear(t *testing.T) {
	e := newEnv(t, 2, 10, 5)
	ct := NewCrossTraffic(e.emu)
	base := e.emu.Pipe(0).Params()
	ct.Apply(map[pipes.ID]float64{0: 5e6}) // 50% utilization
	p := e.emu.Pipe(0).Params()
	if p.BandwidthBps >= base.BandwidthBps {
		t.Error("bandwidth not reduced")
	}
	if p.Latency <= base.Latency {
		t.Error("latency not increased")
	}
	if p.QueuePkts >= base.QueuePkts {
		t.Error("queue not reduced")
	}
	ct.Clear()
	if e.emu.Pipe(0).Params() != base {
		t.Error("Clear did not restore base params")
	}
}

func TestCrossTrafficSlowsFlows(t *testing.T) {
	run := func(cross bool) float64 {
		e := newEnv(t, 2, 10, 2)
		sink, _ := NewSink(e.hosts[1], 80)
		if cross {
			ct := NewCrossTraffic(e.emu)
			loads := map[pipes.ID]float64{}
			for i := 0; i < e.emu.NumPipes(); i++ {
				loads[pipes.ID(i)] = 7e6 // 70% background on every pipe
			}
			ct.Apply(loads)
		}
		StartBulk(e.hosts[0], netstack.Endpoint{VN: 1, Port: 80}, 1_000_000)
		e.sched.RunUntil(vtime.Time(60 * vtime.Second))
		if sink.TotalBytes != 1_000_000 {
			t.Fatalf("flow incomplete: %d", sink.TotalBytes)
		}
		return sink.Flows[0].Throughput()
	}
	clean := run(false)
	loaded := run(true)
	if loaded >= clean*0.7 {
		t.Errorf("cross traffic did not slow the flow: %v vs %v bits/s", loaded, clean)
	}
}

func TestPerturberJitterAndRestore(t *testing.T) {
	e := newEnv(t, 4, 10, 5)
	base := make([]pipes.Params, e.emu.NumPipes())
	for i := range base {
		base[i] = e.emu.Pipe(pipes.ID(i)).Params()
	}
	p := NewPerturber(e.emu, 3)
	p.JitterLatency(1.0, 0.25) // all pipes, up to +25%
	changed := 0
	for i := range base {
		now := e.emu.Pipe(pipes.ID(i)).Params()
		if now.Latency > base[i].Latency {
			changed++
		}
		if now.Latency > base[i].Latency+vtime.Duration(float64(base[i].Latency)*0.25)+1 {
			t.Fatalf("pipe %d latency grew beyond 25%%", i)
		}
	}
	if changed == 0 {
		t.Error("jitter changed nothing")
	}
	p.Restore()
	for i := range base {
		if e.emu.Pipe(pipes.ID(i)).Params() != base[i] {
			t.Fatal("restore incomplete")
		}
	}
}

func TestFailLinksReroutes(t *testing.T) {
	// Diamond: VN0 and VN1 connected via two stub paths; failing the fast
	// path must push traffic onto the slow one, and healing it must bring
	// the fast one back — whichever table the run was bound with, and
	// without trading a bounded cache for a matrix.
	for _, opts := range []bind.Options{{}, {RouteCache: 4}} {
		g := topology.New()
		a := g.AddNode(topology.Client, "a")
		top := g.AddNode(topology.Stub, "top")
		bot := g.AddNode(topology.Stub, "bot")
		bdd := g.AddNode(topology.Client, "b")
		fast := topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.001, QueuePkts: 50}
		slow := topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.020, QueuePkts: 50}
		f1, _ := g.AddDuplex(a, top, fast)
		g.AddDuplex(top, bdd, fast)
		g.AddDuplex(a, bot, slow)
		g.AddDuplex(bot, bdd, slow)

		b, err := bind.Bind(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		sched := vtime.NewScheduler()
		emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 1)
		if err != nil {
			t.Fatal(err)
		}
		h0 := netstack.NewHost(0, sched, emu, emu)
		h1 := netstack.NewHost(1, sched, emu, emu)
		var arrivals []vtime.Time
		h1.OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) {
			arrivals = append(arrivals, sched.Now())
		})
		s, _ := h0.OpenUDP(0, nil)
		s.SendTo(netstack.Endpoint{VN: 1, Port: 9}, 100, nil)
		base := map[topology.LinkID]pipes.Params{f1: emu.Pipe(pipes.ID(f1)).Params()}
		sched.At(vtime.Time(vtime.Second), func() {
			if err := FailLinks(emu, map[topology.LinkID]bool{f1: true}); err != nil {
				t.Errorf("FailLinks: %v", err)
			}
			s.SendTo(netstack.Endpoint{VN: 1, Port: 9}, 100, nil)
		})
		sched.At(vtime.Time(2*vtime.Second), func() {
			if err := HealLinks(emu, base); err != nil {
				t.Errorf("HealLinks: %v", err)
			}
			s.SendTo(netstack.Endpoint{VN: 1, Port: 9}, 100, nil)
		})
		sched.Run()
		if len(arrivals) != 3 {
			t.Fatalf("%+v: arrivals: %v", opts, arrivals)
		}
		d1 := vtime.Duration(arrivals[0])
		d2 := arrivals[1].Sub(vtime.Time(vtime.Second))
		d3 := arrivals[2].Sub(vtime.Time(2 * vtime.Second))
		if d2 < 10*d1 {
			t.Errorf("%+v: post-failure delivery %v not much slower than %v (reroute failed?)", opts, d2, d1)
		}
		if d3 != d1 {
			t.Errorf("%+v: post-heal delivery %v, want the fast path's %v again", opts, d3, d1)
		}
		if _, isCache := emu.Binding().Table.(*bind.Cache); isCache != (opts.RouteCache > 0) {
			t.Errorf("%+v: table after fail+heal is %T", opts, emu.Binding().Table)
		}
	}
}
