package chord

import (
	"fmt"
	"testing"
	"testing/quick"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

type ring struct {
	sched *vtime.Scheduler
	nodes []*Node
}

func newRing(t *testing.T, n int) *ring {
	t.Helper()
	g := topology.Star(n, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.005, QueuePkts: 50})
	b, err := bind.Bind(g, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, b, nil, emucore.IdealProfile(), 9)
	if err != nil {
		t.Fatal(err)
	}
	r := &ring{sched: sched}
	for i := 0; i < n; i++ {
		h := netstack.NewHost(pipes.VN(i), sched, emu, emu)
		nd, err := NewNode(h, HashString(fmt.Sprintf("node-%d", i)), Config{})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, nd)
	}
	return r
}

func TestBetween(t *testing.T) {
	cases := []struct {
		a, x, b ID
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false},
		{10, 20, 20, true},
		{10, 25, 20, false},
		{20, 25, 10, true},  // wrap
		{20, 5, 10, true},   // wrap
		{20, 15, 10, false}, // wrap
		{7, 7, 7, true},     // full circle
	}
	for _, c := range cases {
		if got := between(c.a, c.x, c.b); got != c.want {
			t.Errorf("between(%d,%d,%d) = %v", c.a, c.x, c.b, got)
		}
	}
}

func TestBootstrapRingConsistency(t *testing.T) {
	r := newRing(t, 12)
	BootstrapAll(r.nodes)
	// Walk successors from node 0: must visit all 12 and return.
	byAddr := map[netstack.Endpoint]*Node{}
	for _, nd := range r.nodes {
		byAddr[nd.Ref().Addr] = nd
	}
	cur := r.nodes[0]
	seen := map[ID]bool{}
	for i := 0; i < 12; i++ {
		if seen[cur.ID()] {
			t.Fatal("successor cycle shorter than ring")
		}
		seen[cur.ID()] = true
		cur = byAddr[cur.Successor().Addr]
	}
	if cur != r.nodes[0] {
		t.Fatal("successor walk did not close the ring")
	}
	// Predecessor inverse of successor.
	for _, nd := range r.nodes {
		succ := byAddr[nd.Successor().Addr]
		if succ.Predecessor().ID != nd.ID() {
			t.Fatalf("pred(succ(%v)) != self", nd.ID())
		}
	}
}

func TestLookupFindsCorrectOwner(t *testing.T) {
	r := newRing(t, 12)
	BootstrapAll(r.nodes)
	// Ground truth: owner of key = first node clockwise from key.
	owner := func(key ID) ID {
		best := ID(0)
		found := false
		var min ID = ^ID(0)
		var minID ID
		for _, nd := range r.nodes {
			if nd.ID() < min {
				min = nd.ID()
				minID = nd.ID()
			}
			if nd.ID() >= key && (!found || nd.ID() < best) {
				best = nd.ID()
				found = true
			}
		}
		if !found {
			return minID
		}
		return best
	}
	results := map[ID]ID{}
	for i := 0; i < 40; i++ {
		key := HashString(fmt.Sprintf("key-%d", i))
		src := r.nodes[i%len(r.nodes)]
		src.Lookup(key, func(ref Ref, hops int, err error) {
			if err != nil {
				t.Errorf("lookup %x: %v", key, err)
				return
			}
			results[key] = ref.ID
		})
	}
	r.sched.RunUntil(vtime.Time(30 * vtime.Second))
	if len(results) != 40 {
		t.Fatalf("only %d/40 lookups completed", len(results))
	}
	for key, got := range results {
		if want := owner(key); got != want {
			t.Errorf("lookup(%x) = %x, want %x", key, got, want)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	r := newRing(t, 32)
	BootstrapAll(r.nodes)
	maxHops := 0
	count := 0
	for i := 0; i < 64; i++ {
		key := HashString(fmt.Sprintf("k%d", i))
		r.nodes[i%32].Lookup(key, func(ref Ref, hops int, err error) {
			if err != nil {
				t.Errorf("lookup err: %v", err)
				return
			}
			count++
			if hops > maxHops {
				maxHops = hops
			}
		})
	}
	r.sched.RunUntil(vtime.Time(60 * vtime.Second))
	if count != 64 {
		t.Fatalf("%d/64 lookups done", count)
	}
	// 32 nodes: O(log n) ≈ 5; allow generous slack but far below linear.
	if maxHops > 10 {
		t.Errorf("max hops %d, want ≤10 for 32 nodes", maxHops)
	}
}

func TestJoinAndStabilize(t *testing.T) {
	r := newRing(t, 8)
	r.nodes[0].Create()
	// Join sequentially, then let stabilization run.
	for i := 1; i < 8; i++ {
		i := i
		r.sched.At(vtime.Time(i)*vtime.Time(2*vtime.Second), func() {
			r.nodes[i].Join(r.nodes[0].Ref(), func(err error) {
				if err != nil {
					t.Errorf("join %d: %v", i, err)
				}
			})
		})
	}
	for _, nd := range r.nodes {
		nd.StartMaintenance()
	}
	r.sched.RunUntil(vtime.Time(120 * vtime.Second))
	for _, nd := range r.nodes {
		nd.StopMaintenance()
	}
	r.sched.RunUntil(vtime.Time(130 * vtime.Second))

	// The successor graph must be the sorted ring.
	sorted := append([]*Node(nil), r.nodes...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].ID() < sorted[j-1].ID(); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i, nd := range sorted {
		want := sorted[(i+1)%len(sorted)].ID()
		if nd.Successor().ID != want {
			t.Errorf("node %x successor = %x, want %x", nd.ID(), nd.Successor().ID, want)
		}
	}
	// Lookups work on the converged ring.
	done := 0
	for i := 0; i < 10; i++ {
		r.nodes[i%8].Lookup(HashString(fmt.Sprintf("q%d", i)), func(ref Ref, hops int, err error) {
			if err == nil {
				done++
			}
		})
	}
	r.sched.RunUntil(vtime.Time(160 * vtime.Second))
	if done != 10 {
		t.Errorf("%d/10 post-join lookups succeeded", done)
	}
}

// Property: ring arithmetic — for sorted distinct IDs, successorOf agrees
// with linear scan ownership.
func TestSuccessorOfProperty(t *testing.T) {
	f := func(seedKeys []uint64, key uint64) bool {
		if len(seedKeys) == 0 {
			return true
		}
		r := &ring{} // no network needed for this check
		_ = r
		// Build fake sorted nodes using BootstrapAll helpers is heavy;
		// check between() directly instead: exactly one node owns any key.
		ids := map[ID]bool{}
		for _, k := range seedKeys {
			ids[ID(k)] = true
		}
		var list []ID
		for id := range ids {
			list = append(list, id)
		}
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && list[j] < list[j-1]; j-- {
				list[j], list[j-1] = list[j-1], list[j]
			}
		}
		owners := 0
		k := ID(key)
		for i, id := range list {
			pred := list[(i-1+len(list))%len(list)]
			if len(list) == 1 || between(pred, k, id) {
				owners++
			}
		}
		return owners == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
