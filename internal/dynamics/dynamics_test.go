package dynamics

import (
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

func attrs(mbps, ms float64) topology.LinkAttrs {
	return topology.LinkAttrs{BandwidthBps: mbps * 1e6, LatencySec: ms * 1e-3, QueuePkts: 100}
}

// fixture builds a sequential emulator over g with a delivery recorder.
func fixture(t *testing.T, g *topology.Graph) (*emucore.Emulator, *vtime.Scheduler, map[pipes.VN]int) {
	t.Helper()
	sched := vtime.NewScheduler()
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[pipes.VN]int{}
	for v := 0; v < b.NumVNs(); v++ {
		v := pipes.VN(v)
		e.RegisterVN(v, func(*pipes.Packet) { got[v]++ })
	}
	return e, sched, got
}

func TestStepsApplyInOrder(t *testing.T) {
	g := topology.Line(1, attrs(8, 5))
	e, sched, _ := fixture(t, g)
	s1 := At(10 * vtime.Millisecond)
	s1.Bandwidth = 2e6
	s2 := At(20 * vtime.Millisecond)
	s2.Latency = 1 * vtime.Millisecond
	s2.Loss = 0.25
	spec := &Spec{Profiles: []Profile{{Link: 0, Steps: []Step{s1, s2}}}}
	eng, err := Attach(sched, e, spec)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(vtime.Time(15 * vtime.Millisecond))
	p := e.Pipe(0).Params()
	if p.BandwidthBps != 2e6 || p.Latency != 5*vtime.Millisecond {
		t.Fatalf("after step 1: %+v", p)
	}
	sched.RunUntil(vtime.Time(25 * vtime.Millisecond))
	p = e.Pipe(0).Params()
	// Unchanged fields persist across steps; changed ones take effect.
	if p.BandwidthBps != 2e6 || p.Latency != 1*vtime.Millisecond || p.LossRate != 0.25 {
		t.Fatalf("after step 2: %+v", p)
	}
	if eng.Applied != 2 {
		t.Errorf("applied %d steps", eng.Applied)
	}
}

func TestLoopReplays(t *testing.T) {
	g := topology.Line(1, attrs(8, 5))
	e, sched, _ := fixture(t, g)
	a := At(0)
	a.Bandwidth = 1e6
	b := At(5 * vtime.Millisecond)
	b.Bandwidth = 9e6
	spec := &Spec{Profiles: []Profile{{Link: 0, Steps: []Step{a, b}, Loop: 10 * vtime.Millisecond}}}
	eng, err := Attach(sched, e, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Three full cycles: 6 steps applied, parameters as of mid-cycle 3.
	sched.RunUntil(vtime.Time(27 * vtime.Millisecond))
	if eng.Applied != 6 {
		t.Errorf("applied %d steps over 3 cycles, want 6", eng.Applied)
	}
	if bw := e.Pipe(0).Params().BandwidthBps; bw != 9e6 {
		t.Errorf("bandwidth %v mid-cycle, want 9e6", bw)
	}
}

func TestDownBlackholesAndReroutes(t *testing.T) {
	// Square of routers, one client each: 0-1-2-3-0. VN0 -> VN2 initially
	// routes over one side; failing its first ring hop reroutes the long
	// way and traffic keeps flowing after reconvergence.
	g := topology.New()
	var routers [4]topology.NodeID
	for i := range routers {
		routers[i] = g.AddNode(topology.Stub, "")
	}
	for i := range routers {
		g.AddDuplex(routers[i], routers[(i+1)%4], attrs(100, 5))
	}
	for i := range routers {
		c := g.AddNode(topology.Client, "")
		g.AddDuplex(c, routers[i], attrs(10, 1))
	}
	e, sched, got := fixture(t, g)

	// Find the first ring hop VN0 -> VN2 uses, to fail it.
	route, ok := e.Binding().Table.Lookup(0, 2)
	if !ok || len(route) < 2 {
		t.Fatalf("no initial route: %v", route)
	}
	failLink := int(route[1]) // first ring pipe after the access hop

	down := At(100 * vtime.Millisecond)
	down.Down = true
	up := At(300 * vtime.Millisecond)
	up.Up = true
	spec := &Spec{
		Profiles:     []Profile{{Link: failLink, Steps: []Step{down, up}}},
		Reroute:      true,
		RerouteDelay: 20 * vtime.Millisecond,
	}
	eng, err := Attach(sched, e, spec)
	if err != nil {
		t.Fatal(err)
	}
	// One packet per 10ms from VN0 to VN2 for 500ms.
	for i := 0; i < 50; i++ {
		at := vtime.Time(i) * vtime.Time(10*vtime.Millisecond)
		sched.At(at, func() { e.Inject(0, 2, 500, nil) })
	}
	sched.Run()

	if eng.Reroutes != 2 {
		t.Fatalf("reroutes = %d, want 2 (down + up)", eng.Reroutes)
	}
	fp := e.Pipe(pipes.ID(failLink))
	if fp.Drops[pipes.DropLinkDown] == 0 {
		t.Error("no blackholed packets on the failed link before reconvergence")
	}
	// Conservation: everything injected is delivered or counted dropped.
	tot := e.Totals()
	if tot.Injected != 50 || tot.Delivered+tot.VirtualDrops != 50 || tot.InFlight != 0 {
		t.Fatalf("conservation: %+v", tot)
	}
	// Packets sent while down (after reconvergence) still arrive — the
	// long way around — so deliveries exceed the pre-failure count.
	if got[2] <= 10 {
		t.Errorf("only %d deliveries; rerouted traffic did not flow", got[2])
	}
	// After recovery the original route is restored.
	r2, ok := e.Binding().Table.Lookup(0, 2)
	if !ok || len(r2) != len(route) {
		t.Errorf("route after recovery = %v, want like %v", r2, route)
	}
	for i := range route {
		if r2[i] != route[i] {
			t.Errorf("route after recovery differs at hop %d: %v vs %v", i, r2, route)
		}
	}
}

func TestUnreachablePartitionBlackholes(t *testing.T) {
	// A line: VN0 - r0 - r1 - VN1. Failing both directions of the only
	// router link partitions the VNs; routes stay resolvable (Infinity
	// weight) and traffic blackholes at the down pipe.
	g := topology.Line(2, attrs(100, 5))
	e, sched, got := fixture(t, g)
	var steps []Profile
	for _, l := range g.Links {
		if g.Nodes[l.Src].Kind == topology.Stub && g.Nodes[l.Dst].Kind == topology.Stub {
			d := At(50 * vtime.Millisecond)
			d.Down = true
			steps = append(steps, Profile{Link: int(l.ID), Steps: []Step{d}})
		}
	}
	if len(steps) != 2 {
		t.Fatalf("expected 2 router-router links, got %d", len(steps))
	}
	spec := &Spec{Profiles: steps, Reroute: true, RerouteDelay: 10 * vtime.Millisecond}
	if _, err := Attach(sched, e, spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		at := vtime.Time(i) * vtime.Time(10*vtime.Millisecond)
		sched.At(at, func() { e.Inject(0, 1, 500, nil) })
	}
	sched.Run()
	tot := e.Totals()
	if tot.Injected != 20 {
		t.Fatalf("injected %d", tot.Injected)
	}
	if got[1] == 0 || got[1] == 20 {
		t.Fatalf("deliveries = %d, want some before the cut and none after", got[1])
	}
	if tot.Delivered+tot.VirtualDrops != 20 || tot.InFlight != 0 {
		t.Fatalf("partition leaks packets: %+v", tot)
	}
}

func TestFloorLatency(t *testing.T) {
	lat := func(at, ms vtime.Duration) Step {
		s := At(at)
		s.Latency = ms
		return s
	}
	spec := &Spec{Profiles: []Profile{
		{Link: 3, Steps: []Step{lat(0, 9*vtime.Millisecond), lat(vtime.Second, 2*vtime.Millisecond)}},
		{Link: 3, Steps: []Step{lat(0, 7*vtime.Millisecond)}},
		{Link: 5, Steps: []Step{lat(0, 1*vtime.Millisecond)}},
	}}
	if f := spec.FloorLatency(3, 5*vtime.Millisecond); f != 2*vtime.Millisecond {
		t.Errorf("floor(3) = %v, want 2ms (profile dips below initial)", f)
	}
	if f := spec.FloorLatency(4, 5*vtime.Millisecond); f != 5*vtime.Millisecond {
		t.Errorf("floor(4) = %v, want initial (no profile)", f)
	}
	// A step that only raises latency never raises the floor.
	if f := spec.FloorLatency(5, vtime.Microsecond); f != vtime.Microsecond {
		t.Errorf("floor(5) = %v, want initial", f)
	}
	var nilSpec *Spec
	if f := nilSpec.FloorLatency(0, vtime.Second); f != vtime.Second {
		t.Errorf("nil spec floor = %v", f)
	}
	if nilSpec.LatencyFloorFunc() != nil {
		t.Error("nil spec should yield nil floor func")
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(edit func(*Spec)) *Spec {
		s := At(0)
		s.Bandwidth = 1e6
		spec := &Spec{Profiles: []Profile{{Link: 0, Steps: []Step{s}}}}
		edit(spec)
		return spec
	}
	cases := map[string]*Spec{
		"negative link":  mk(func(s *Spec) { s.Profiles[0].Link = -1 }),
		"link range":     mk(func(s *Spec) { s.Profiles[0].Link = 99 }),
		"no steps":       mk(func(s *Spec) { s.Profiles[0].Steps = nil }),
		"negative at":    mk(func(s *Spec) { s.Profiles[0].Steps[0].At = -1 }),
		"loss over 1":    mk(func(s *Spec) { s.Profiles[0].Steps[0].Loss = 1.5 }),
		"down and up":    mk(func(s *Spec) { s.Profiles[0].Steps[0].Down = true; s.Profiles[0].Steps[0].Up = true }),
		"negative loop":  mk(func(s *Spec) { s.Profiles[0].Loop = -1 }),
		"step past loop": mk(func(s *Spec) { s.Profiles[0].Loop = 1; s.Profiles[0].Steps[0].At = 2 }),
		"unsorted steps": mk(func(s *Spec) { s.Profiles[0].Steps = []Step{At(5), At(1)} }),
		"negative delay": mk(func(s *Spec) { s.RerouteDelay = -1 }),
	}
	for name, spec := range cases {
		if err := spec.Validate(10); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	ok := mk(func(*Spec) {})
	if err := ok.Validate(10); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (*Spec)(nil).Validate(10); err != nil {
		t.Errorf("nil spec rejected: %v", err)
	}
}

func TestParseTrace(t *testing.T) {
	steps, period, err := ParseTrace(TraceLTE)
	if err != nil {
		t.Fatal(err)
	}
	if period != 2*vtime.Second {
		t.Errorf("period = %v", period)
	}
	if len(steps) != 8 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Bandwidth != 24e6 || steps[0].Latency != 42*vtime.Millisecond {
		t.Errorf("step 0 = %+v", steps[0])
	}
	if steps[0].Loss != Unchanged {
		t.Errorf("trace step sets loss: %+v", steps[0])
	}
	for _, name := range []string{"lte", "satellite", "wifi"} {
		text, ok := BundledTrace(name)
		if !ok {
			t.Fatalf("bundled trace %q missing", name)
		}
		if _, _, err := ParseTrace(text); err != nil {
			t.Errorf("bundled trace %q: %v", name, err)
		}
	}
	if _, ok := BundledTrace("nope"); ok {
		t.Error("unknown bundled trace resolved")
	}
	for name, text := range map[string]string{
		"empty":         "# nothing\n",
		"bad time":      "x 1 1\n",
		"bad bandwidth": "0 -3\n",
		"bad latency":   "0 1 -2\n",
		"unsorted":      "1 1\n0.5 1\n",
		"short period":  "period 1\n0 1\n2 1\n",
		"extra columns": "0 1 2 3\n",
	} {
		if _, _, err := ParseTrace(text); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

func TestParseScript(t *testing.T) {
	spec, err := ParseScript("3@2s loss=0.05; 3@5s down; 3@8s up; 1@0s bw=4 lat=20ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Profiles) != 2 {
		t.Fatalf("profiles = %d", len(spec.Profiles))
	}
	// Profiles in link order.
	if spec.Profiles[0].Link != 1 || spec.Profiles[1].Link != 3 {
		t.Fatalf("links = %d, %d", spec.Profiles[0].Link, spec.Profiles[1].Link)
	}
	p1 := spec.Profiles[0].Steps[0]
	if p1.Bandwidth != 4e6 || p1.Latency != 20*vtime.Millisecond || p1.Loss != Unchanged {
		t.Errorf("link 1 step = %+v", p1)
	}
	p3 := spec.Profiles[1].Steps
	if len(p3) != 3 || p3[0].Loss != 0.05 || !p3[1].Down || !p3[2].Up {
		t.Errorf("link 3 steps = %+v", p3)
	}
	if !spec.Reroute {
		t.Error("down/up did not enable reroute")
	}
	if spec2, err := ParseScript("3@1s down; noreroute"); err != nil || spec2.Reroute {
		t.Errorf("noreroute: %v %+v", err, spec2)
	}
	if spec3, err := ParseScript("3@1s down; reroute=100ms"); err != nil || spec3.RerouteDelay != 100*vtime.Millisecond {
		t.Errorf("reroute delay: %v %+v", err, spec3)
	}
	for _, bad := range []string{
		"", "3@2s", "x@2s down", "3@x down", "3@2s wat", "3@2s bw=-1",
		"3@2s loss=1.5", "3@2s lat=zz", "reroute=-5s", "3@-2s down",
	} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("%q: parsed", bad)
		}
	}
}

// TestEnumerateReroutesIsCapped: the schedule a federated worker preloads
// into its route Cache holds at most MaxRerouteEpochs+1 down sets. A link
// flapping forever schedules reroutes forever; inside a horizon that fits the
// cap the schedule is every reroute, past it the replay refuses.
func TestEnumerateReroutesIsCapped(t *testing.T) {
	down, up := At(0), At(vtime.Millisecond)
	down.Down, up.Up = true, true
	spec := &Spec{Reroute: true, RerouteDelay: 100 * vtime.Microsecond,
		Profiles: []Profile{{Link: 0, Steps: []Step{down, up}, Loop: 2 * vtime.Millisecond}}}
	// A reroute 0.1 ms after each step, one a millisecond: 4 094 of them in
	// 4 094 ms, and the pristine epoch before them.
	fits := vtime.Duration(MaxRerouteEpochs-2) * vtime.Millisecond
	sets, err := EnumerateReroutes(spec, 1, fits)
	if err != nil || len(sets) != MaxRerouteEpochs-1 {
		t.Fatalf("over %v: %d down sets, err %v; want %d", fits, len(sets), err, MaxRerouteEpochs-1)
	}
	for e, set := range sets {
		if want := e % 2; len(set) != want || (want == 1 && set[0] != 0) {
			t.Fatalf("epoch %d: down set %v, want link 0 down in odd epochs only", e, set)
		}
	}
	if sets, err := EnumerateReroutes(spec, 1, 2*fits); err == nil {
		t.Fatalf("over %v: %d down sets and no error, want the cap's refusal", 2*fits, len(sets))
	}
}
