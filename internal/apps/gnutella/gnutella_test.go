package gnutella

import (
	"fmt"
	"math/rand"
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

type swarm struct {
	sched *vtime.Scheduler
	peers []*Peer
}

// newSwarm builds n peers on a star with a random overlay of given degree.
func newSwarm(t *testing.T, n, degree int, seed int64) *swarm {
	t.Helper()
	g := topology.Star(n, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.002, QueuePkts: 200})
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), seed)
	if err != nil {
		t.Fatal(err)
	}
	sw := &swarm{sched: sched}
	for i := 0; i < n; i++ {
		h := netstack.NewHost(pipes.VN(i), sched, emu, emu)
		p, err := NewPeer(h, i, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sw.peers = append(sw.peers, p)
	}
	// Connected overlay: chain + random extra edges.
	rng := rand.New(rand.NewSource(seed))
	connect := func(a, bb int) {
		sw.peers[a].Connect(sw.peers[bb].Addr())
		sw.peers[bb].Connect(sw.peers[a].Addr())
	}
	for i := 1; i < n; i++ {
		connect(i, rng.Intn(i))
	}
	for i := 0; i < n*(degree-2)/2; i++ {
		a, bb := rng.Intn(n), rng.Intn(n)
		if a != bb {
			connect(a, bb)
		}
	}
	return sw
}

func TestQueryFindsSharedFile(t *testing.T) {
	sw := newSwarm(t, 30, 4, 1)
	sw.peers[17].Share("mp3")
	sw.peers[23].Share("mp3")
	hits := map[netstack.Endpoint]bool{}
	sw.peers[0].Query("mp3", func(from netstack.Endpoint) { hits[from] = true })
	sw.sched.RunUntil(vtime.Time(10 * vtime.Second))
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want both sharers", len(hits))
	}
}

func TestQueryMissesAbsentFile(t *testing.T) {
	sw := newSwarm(t, 20, 4, 2)
	hitCount := 0
	sw.peers[0].Query("nothing", func(netstack.Endpoint) { hitCount++ })
	sw.sched.RunUntil(vtime.Time(10 * vtime.Second))
	if hitCount != 0 {
		t.Errorf("phantom hits: %d", hitCount)
	}
}

func TestTTLBoundsFlood(t *testing.T) {
	// A long chain: TTL limits the ping horizon.
	n := 20
	g := topology.Star(n, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.002, QueuePkts: 200})
	b, _ := bind.Bind(g, bind.Options{})
	sched := vtime.NewScheduler()
	emu, _ := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 3)
	var peers []*Peer
	for i := 0; i < n; i++ {
		h := netstack.NewHost(pipes.VN(i), sched, emu, emu)
		p, _ := NewPeer(h, i, Config{DefaultTTL: 3})
		peers = append(peers, p)
	}
	for i := 1; i < n; i++ {
		peers[i].Connect(peers[i-1].Addr())
		peers[i-1].Connect(peers[i].Addr())
	}
	reached := 0
	peers[0].Reachability(5*vtime.Second, func(c int) { reached = c })
	sched.RunUntil(vtime.Time(10 * vtime.Second))
	if reached != 3 {
		t.Errorf("TTL 3 on a chain reached %d peers, want 3", reached)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Dense overlay: floods must terminate and each peer answers once.
	sw := newSwarm(t, 25, 8, 4)
	count := 0
	sw.peers[0].Ping(func(netstack.Endpoint) { count++ })
	sw.sched.RunUntil(vtime.Time(10 * vtime.Second))
	if count != 24 {
		t.Errorf("pongs = %d, want 24 (each peer once)", count)
	}
	dups := uint64(0)
	for _, p := range sw.peers {
		dups += p.Duplicates
	}
	if dups == 0 {
		t.Error("dense overlay produced no suppressed duplicates — flood broken?")
	}
}

func TestConnectivityAfterPartition(t *testing.T) {
	sw := newSwarm(t, 16, 3, 5)
	full := -1
	sw.peers[0].Reachability(5*vtime.Second, func(c int) { full = c })
	sw.sched.RunUntil(vtime.Time(10 * vtime.Second))
	if full != 15 {
		t.Fatalf("initial reachability %d, want 15", full)
	}
}

func TestMidScaleSwarm(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale swarm in -short mode")
	}
	sw := newSwarm(t, 400, 4, 6)
	for i := 0; i < 10; i++ {
		sw.peers[i*17].Share(fmt.Sprintf("file%d", i%3))
	}
	reached := 0
	sw.peers[0].Reachability(20*vtime.Second, func(c int) { reached = c })
	sw.sched.RunUntil(vtime.Time(40 * vtime.Second))
	// TTL 7 on a degree-4 random graph covers most of 400 nodes.
	if reached < 300 {
		t.Errorf("reached %d/399", reached)
	}
}
