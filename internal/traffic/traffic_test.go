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
	// the fast one back — at the default capacity and a given one, the table
	// staying the route cache the run was bound with, capacity and all.
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
		base := emu.Pipe(pipes.ID(f1)).Params()
		sched.At(vtime.Time(vtime.Second), func() {
			FailLinks(emu, map[topology.LinkID]bool{f1: true})
			s.SendTo(netstack.Endpoint{VN: 1, Port: 9}, 100, nil)
		})
		sched.At(vtime.Time(2*vtime.Second), func() {
			emu.SetPipeParams(pipes.ID(f1), base)
			emu.Reroute(nil)
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
		want := opts.RouteCache
		if want == 0 {
			want = bind.DefaultRouteCache
		}
		if c, ok := emu.Binding().Table.(*bind.Cache); !ok || c != b.Table || c.Cap() != want {
			t.Errorf("%+v: table after fail+heal is %T %p (bound %p), want the bound *bind.Cache of capacity %d", opts, emu.Binding().Table, emu.Binding().Table, b.Table, want)
		}
	}
}
