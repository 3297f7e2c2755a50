package acdc

import (
	"math"
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// overlayEnv builds n members on a star topology with a cost oracle where
// "adjacent" ids are cheap — so the optimal tree is a chain-like structure
// and random initial parents are expensive.
type overlayEnv struct {
	sched *vtime.Scheduler
	nodes []*Node
	cost  func(a, b int) float64
	delay func(a, b int) float64
}

func newOverlay(t *testing.T, n int, targetDelay float64) *overlayEnv {
	t.Helper()
	// 20 ms access links: every member pair is 40 ms apart one-way,
	// matching the delay oracle below.
	g := topology.Star(n, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.020, QueuePkts: 50})
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 11)
	if err != nil {
		t.Fatal(err)
	}
	env := &overlayEnv{sched: sched}
	env.cost = func(a, bb int) float64 {
		d := a - bb
		if d < 0 {
			d = -d
		}
		return float64(d) // |i-j|: neighbors cheap
	}
	env.delay = func(a, bb int) float64 {
		if a == bb {
			return 0
		}
		return 0.040 // uniform two-hop star path RTT/2 ≈ 20ms+20ms
	}
	var members []netstack.Endpoint
	for i := 0; i < n; i++ {
		members = append(members, netstack.Endpoint{VN: pipes.VN(i), Port: 4500})
	}
	for i := 0; i < n; i++ {
		h := netstack.NewHost(pipes.VN(i), sched, emu, emu)
		nd, err := NewNode(h, i, members, env.cost, Config{
			TargetDelay: targetDelay,
			EvalEvery:   2 * vtime.Second,
			ProbeFanout: 5,
			Seed:        int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		env.nodes = append(env.nodes, nd)
	}
	return env
}

func TestMSTCost(t *testing.T) {
	// 4 nodes, cost |i-j|: MST = chain 0-1-2-3, cost 3.
	cost := func(a, b int) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return float64(d)
	}
	if got := MSTCost(4, cost); got != 3 {
		t.Errorf("MST = %v, want 3", got)
	}
	if MSTCost(1, cost) != 0 {
		t.Error("singleton MST should be 0")
	}
}

func TestSPTMaxDelay(t *testing.T) {
	delay := func(a, b int) float64 { return float64(b) * 0.1 }
	if got := SPTMaxDelay(5, delay); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("SPT max = %v", got)
	}
}

func TestTreeMetricsWalk(t *testing.T) {
	env := newOverlay(t, 5, 1.5)
	// Chain: 0 <- 1 <- 2 <- 3 <- 4.
	for i := 1; i < 5; i++ {
		env.nodes[i].SetParent(i - 1)
	}
	cost := TreeCost(env.nodes, env.cost)
	if cost != 4 {
		t.Errorf("chain cost = %v, want 4", cost)
	}
	d := TreeMaxDelay(env.nodes, env.delay)
	if math.Abs(d-4*0.040) > 1e-9 {
		t.Errorf("chain max delay = %v, want 0.16", d)
	}
	// Star: all directly under root.
	for i := 1; i < 5; i++ {
		env.nodes[i].SetParent(0)
	}
	if got := TreeMaxDelay(env.nodes, env.delay); math.Abs(got-0.040) > 1e-9 {
		t.Errorf("star max delay = %v", got)
	}
}

func TestTreeMaxDelayBreaksCycles(t *testing.T) {
	env := newOverlay(t, 4, 1.5)
	env.nodes[1].SetParent(2)
	env.nodes[2].SetParent(1) // cycle 1<->2
	env.nodes[3].SetParent(0)
	d := TreeMaxDelay(env.nodes, env.delay)
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("cycle not handled: %v", d)
	}
}

func TestOverlayReducesCost(t *testing.T) {
	// Start everyone under the root (cost |i| sums large); adaptation with
	// a loose delay target should push cost toward the MST (chain).
	const n = 16
	env := newOverlay(t, n, 5.0) // loose target: pure cost optimization
	for i := 1; i < n; i++ {
		env.nodes[i].SetParent(0)
		env.nodes[i].Start()
	}
	initial := TreeCost(env.nodes, env.cost)
	env.sched.RunUntil(vtime.Time(300 * vtime.Second))
	final := TreeCost(env.nodes, env.cost)
	mst := MSTCost(n, env.cost)
	if final >= initial {
		t.Fatalf("cost did not improve: %v -> %v (MST %v)", initial, final, mst)
	}
	if final > mst*2.0 {
		t.Errorf("final cost %v more than 2x MST %v", final, mst)
	}
}

func TestOverlayRespectsDelayTarget(t *testing.T) {
	// Tight target: with uniform 40 ms edges and target 100 ms, trees
	// deeper than 2 overlay hops violate; adaptation must flatten.
	const n = 12
	env := newOverlay(t, n, 0.100)
	for i := 1; i < n; i++ {
		env.nodes[i].SetParent(i - 1) // worst case: a chain
		env.nodes[i].Start()
	}
	env.sched.RunUntil(vtime.Time(600 * vtime.Second))
	d := TreeMaxDelay(env.nodes, env.delay)
	if d > 0.100+0.045 { // one edge of slack for measurement noise
		t.Errorf("max delay %v still above target after adaptation", d)
	}
}

func TestRootNeverSwitches(t *testing.T) {
	env := newOverlay(t, 4, 1.0)
	env.nodes[0].Start()
	for i := 1; i < 4; i++ {
		env.nodes[i].SetParent(0)
		env.nodes[i].Start()
	}
	env.sched.RunUntil(vtime.Time(60 * vtime.Second))
	if env.nodes[0].Parent() != -1 {
		t.Error("root acquired a parent")
	}
	if env.nodes[0].Switches != 0 {
		t.Error("root switched")
	}
}
