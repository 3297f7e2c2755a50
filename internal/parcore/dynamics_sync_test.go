package parcore

import (
	"testing"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/dynamics"
	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// syncFixture builds the sync inputs for a ring split over k shards and
// returns the first border pipe of the first shard that has one — a pipe
// whose exit crosses shards, i.e. one that contributes to lookahead.
func syncFixture(t *testing.T, k int) (*topology.Graph, *bind.Binding, *bind.POD, []int, []ShardSync, pipes.ID) {
	t.Helper()
	ring := topology.LinkAttrs{BandwidthBps: 20e6, LatencySec: topology.Ms(5), QueuePkts: 64}
	access := topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: topology.Ms(1), QueuePkts: 64}
	g := topology.Ring(8, 2, ring, access)
	asn, err := assign.KClusters(g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bind.Bind(g, bind.Options{Cores: k})
	if err != nil {
		t.Fatal(err)
	}
	pod := asn.POD()
	homes := Homes(g, b, pod, k)
	base := ComputeSyncFloor(g, b, pod, homes, k, nil)
	for _, s := range base {
		if len(s.BorderPipes) > 0 {
			return g, b, pod, homes, base, s.BorderPipes[0]
		}
	}
	t.Fatal("no shard has a border pipe")
	return nil, nil, nil, nil, nil, 0
}

// TestLookaheadUsesProfileFloor is the conservative-sync safety check for
// link dynamics: when a cut pipe's trace dips its latency below the
// bind-time value, the owning shard's Lookahead must shrink to the
// profile's floor — windows sized off the initial latency could otherwise
// admit a cross-shard message into an already-released window.
func TestLookaheadUsesProfileFloor(t *testing.T) {
	g, b, pod, homes, base, cut := syncFixture(t, 2)
	owner := pod.Owner(cut) % 2

	dip := dynamics.At(200 * vtime.Millisecond)
	dip.Latency = 100 * vtime.Microsecond // well below every link latency
	spec := &dynamics.Spec{Profiles: []dynamics.Profile{
		{Link: int(cut), Steps: []dynamics.Step{dip}},
	}}

	floored := ComputeSyncFloor(g, b, pod, homes, 2, spec.LatencyFloorFunc())
	if got := floored[owner].Lookahead; got != 100*vtime.Microsecond {
		t.Fatalf("floored lookahead = %v, want the profile floor 100µs", got)
	}
	if floored[owner].Lookahead >= base[owner].Lookahead {
		t.Fatalf("floor did not shrink lookahead: %v -> %v",
			base[owner].Lookahead, floored[owner].Lookahead)
	}

	// A profile that only raises latency must leave lookahead alone.
	raise := dynamics.At(200 * vtime.Millisecond)
	raise.Latency = vtime.Second
	up := &dynamics.Spec{Profiles: []dynamics.Profile{
		{Link: int(cut), Steps: []dynamics.Step{raise}},
	}}
	for i, s := range ComputeSyncFloor(g, b, pod, homes, 2, up.LatencyFloorFunc()) {
		if s.Lookahead != base[i].Lookahead {
			t.Fatalf("shard %d lookahead moved on a raise-only profile: %v -> %v",
				i, base[i].Lookahead, s.Lookahead)
		}
	}
}

// TestDynamicsParallelMatchesSequential drives traffic across a cut pipe
// while its trace dips latency below the bind-time value and checks the
// parallel run agrees with the sequential one packet for packet. If the
// runtime sized windows off the initial latency instead of the floor, the
// dipped messages would violate EOT and the applier would panic the run.
func TestDynamicsParallelMatchesSequential(t *testing.T) {
	g, b, pod, homes, _, cut := syncFixture(t, 2)
	_ = homes

	low := dynamics.At(20 * vtime.Millisecond)
	low.Latency = 500 * vtime.Microsecond
	high := dynamics.At(60 * vtime.Millisecond)
	high.Latency = 5 * vtime.Millisecond
	spec := &dynamics.Spec{Profiles: []dynamics.Profile{
		{Link: int(cut), Steps: []dynamics.Step{low, high}, Loop: 80 * vtime.Millisecond},
	}}
	horizon := vtime.Time(600 * vtime.Millisecond)

	type result struct {
		totals emucore.Totals
		got    []int
	}

	seq := func() result {
		sched := vtime.NewScheduler()
		emu, err := emucore.New(sched, g, b, pod, emucore.IdealProfile(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dynamics.Attach(sched, emu, spec); err != nil {
			t.Fatal(err)
		}
		got := make([]int, b.NumVNs())
		for v := 0; v < b.NumVNs(); v++ {
			v := pipes.VN(v)
			emu.RegisterVN(v, func(*pipes.Packet) { got[v]++ })
		}
		n := b.NumVNs()
		for i := 0; i < 200; i++ {
			src := pipes.VN(i % n)
			dst := pipes.VN((i + n/2) % n)
			at := vtime.Time(i) * vtime.Time(2*vtime.Millisecond)
			sched.At(at, func() { emu.Inject(src, dst, 400, nil) })
		}
		// The looping profile reschedules itself forever; drive to a fixed
		// horizon past the last injection instead of running to completion.
		sched.RunUntil(horizon)
		return result{emu.Totals(), got}
	}()

	par := func() result {
		asn, err := assign.KClusters(g, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{
			Graph: g, Binding: b, Assignment: asn,
			Profile: emucore.IdealProfile(), Seed: 1, Dynamics: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, b.NumVNs())
		for v := 0; v < b.NumVNs(); v++ {
			v := pipes.VN(v)
			r.RegisterVN(v, func(*pipes.Packet) { got[v]++ })
		}
		n := b.NumVNs()
		for i := 0; i < 200; i++ {
			src := pipes.VN(i % n)
			dst := pipes.VN((i + n/2) % n)
			at := vtime.Time(i) * vtime.Time(2*vtime.Millisecond)
			emu := r.EmuOf(src)
			r.SchedOf(src).At(at, func() { emu.Inject(src, dst, 400, nil) })
		}
		la := vtime.Duration(vtime.Forever)
		for _, w := range r.workers {
			if len(w.Sync.BorderPipes) > 0 && w.Sync.Lookahead < la {
				la = w.Sync.Lookahead
			}
		}
		if la > 500*vtime.Microsecond {
			t.Fatalf("cluster lookahead %v ignores the 500µs profile floor", la)
		}
		r.RunUntil(horizon)
		return result{r.Totals(), got}
	}()

	if seq.totals != par.totals {
		t.Fatalf("totals diverge:\nseq %+v\npar %+v", seq.totals, par.totals)
	}
	for v := range seq.got {
		if seq.got[v] != par.got[v] {
			t.Fatalf("VN %d deliveries: seq %d, par %d", v, seq.got[v], par.got[v])
		}
	}
	if seq.totals.Delivered == 0 {
		t.Fatal("no traffic delivered; test exercises nothing")
	}
}
