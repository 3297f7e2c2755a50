package webrepl

import (
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

type env struct {
	sched *vtime.Scheduler
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
	emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 8)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{sched: sched}
	for i := 0; i < n; i++ {
		e.hosts = append(e.hosts, netstack.NewHost(pipes.VN(i), sched, emu, emu))
	}
	return e
}

func TestSingleRequest(t *testing.T) {
	e := newEnv(t, 2, 10, 5)
	srv, err := NewServer(e.hosts[1], 80)
	if err != nil {
		t.Fatal(err)
	}
	pb := NewPlayback(e.hosts[:1], func(int) netstack.Endpoint {
		return netstack.Endpoint{VN: 1, Port: 80}
	})
	pb.Run([]traffic.TraceReq{{At: 0, Client: 0, Size: 30000}})
	e.sched.RunUntil(vtime.Time(30 * vtime.Second))
	if len(pb.Results) != 1 || !pb.Results[0].OK {
		t.Fatalf("results: %+v", pb.Results)
	}
	if srv.Requests != 1 || srv.BytesOut != 30000 {
		t.Errorf("server: %d reqs %d bytes", srv.Requests, srv.BytesOut)
	}
	lat := pb.Results[0].Latency
	// 30 KB over 10 Mb/s with 20 ms RTT: at least RTT + 24 ms serialization.
	if lat < vtime.Duration(40*vtime.Millisecond) || lat > vtime.Duration(2*vtime.Second) {
		t.Errorf("latency %v implausible", lat)
	}
}

func TestManyClients(t *testing.T) {
	e := newEnv(t, 9, 10, 2)
	if _, err := NewServer(e.hosts[8], 80); err != nil {
		t.Fatal(err)
	}
	pb := NewPlayback(e.hosts[:8], func(int) netstack.Endpoint {
		return netstack.Endpoint{VN: 8, Port: 80}
	})
	reqs := traffic.Synthesize(traffic.TraceConfig{
		Duration: 10 * vtime.Second, Clients: 8,
		MinRate: 20, MaxRate: 30, MedianSize: 4 << 10, Seed: 2,
	})
	pb.Run(reqs)
	e.sched.RunUntil(vtime.Time(60 * vtime.Second))
	lat, failed := pb.LatencySample()
	if lat.N()+failed != len(reqs) {
		t.Fatalf("accounted %d+%d of %d requests", lat.N(), failed, len(reqs))
	}
	if failed > len(reqs)/20 {
		t.Errorf("%d/%d requests failed", failed, len(reqs))
	}
	if lat.Median() <= 0 {
		t.Error("no latency distribution")
	}
}

func TestServerCPUDelay(t *testing.T) {
	run := func(cpu vtime.Duration) vtime.Duration {
		e := newEnv(t, 2, 100, 1)
		srv, _ := NewServer(e.hosts[1], 80)
		srv.PerRequestCPU = cpu
		pb := NewPlayback(e.hosts[:1], func(int) netstack.Endpoint {
			return netstack.Endpoint{VN: 1, Port: 80}
		})
		pb.Run([]traffic.TraceReq{{At: 0, Client: 0, Size: 1000}})
		e.sched.RunUntil(vtime.Time(10 * vtime.Second))
		if len(pb.Results) != 1 {
			t.Fatal("request lost")
		}
		return pb.Results[0].Latency
	}
	fast := run(0)
	slow := run(100 * vtime.Millisecond)
	if slow < fast+vtime.Duration(90*vtime.Millisecond) {
		t.Errorf("CPU delay not reflected: %v vs %v", fast, slow)
	}
}

func TestContentionRaisesTailLatency(t *testing.T) {
	// A thin server link under heavy load must raise tail latency
	// relative to a light load — the mechanism behind Fig. 11.
	run := func(rate float64) float64 {
		e := newEnv(t, 9, 2, 2) // 2 Mb/s access links: server link is the choke point
		NewServer(e.hosts[8], 80)
		pb := NewPlayback(e.hosts[:8], func(int) netstack.Endpoint {
			return netstack.Endpoint{VN: 8, Port: 80}
		})
		reqs := traffic.Synthesize(traffic.TraceConfig{
			Duration: 20 * vtime.Second, Clients: 8,
			MinRate: rate, MaxRate: rate, MedianSize: 8 << 10, Seed: 5,
		})
		pb.Run(reqs)
		e.sched.RunUntil(vtime.Time(120 * vtime.Second))
		lat, _ := pb.LatencySample()
		return lat.Percentile(90)
	}
	light := run(2)
	heavy := run(25)
	if heavy < light*2 {
		t.Errorf("tail latency under contention %v not ≫ light load %v", heavy, light)
	}
}
