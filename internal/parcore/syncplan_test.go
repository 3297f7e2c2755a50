package parcore

import (
	"fmt"
	"reflect"
	"testing"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/distill"
	"modelnet/internal/dynamics"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// naiveSync is the definitional reference for a shard's border pipes,
// lookahead and ingress flag, one shard at a time over the whole graph: an
// owned pipe is a border pipe when its head node has an out-link owned by
// another shard or is a VN homed on another shard; the lookahead is the least
// floored latency over them; the ingress flag is set when a homed VN has an
// out-link owned by another shard.
func naiveSync(g *topology.Graph, b *bind.Binding, pod *bind.POD, homes []int, k, o int, floor func(topology.LinkID, vtime.Duration) vtime.Duration) (border []pipes.ID, look vtime.Duration, ingress bool) {
	own := func(id topology.LinkID) int { return pod.Owner(pipes.ID(id)) % k }
	for _, l := range g.Links {
		if own(l.ID) != o {
			continue
		}
		crosses := false
		for _, q := range g.Out(l.Dst) {
			crosses = crosses || own(q) != o
		}
		if vn := b.VNOfNode[l.Dst]; vn >= 0 && homes[vn] != o {
			crosses = true
		}
		if !crosses {
			continue
		}
		lat := vtime.DurationOf(l.Attr.LatencySec)
		if floor != nil {
			lat = floor(l.ID, lat)
		}
		if len(border) == 0 || lat < look {
			look = lat
		}
		border = append(border, pipes.ID(l.ID))
	}
	for v, node := range b.VNHome {
		for _, q := range g.Out(node) {
			ingress = ingress || homes[v] == o && own(q) != o
		}
	}
	return border, look, ingress
}

// matchReference fails the test unless s agrees with naiveSync.
func matchReference(t *testing.T, at string, g *topology.Graph, b *bind.Binding, pod *bind.POD, homes []int, s ShardSync, floor func(topology.LinkID, vtime.Duration) vtime.Duration) {
	t.Helper()
	border, look, ingress := naiveSync(g, b, pod, homes, s.Cores, s.Shard, floor)
	if !reflect.DeepEqual(s.BorderPipes, border) || s.Lookahead != look || s.IngressCross != ingress {
		t.Fatalf("%s shard %d: border %v lookahead %v ingress %v, reference %v %v %v",
			at, s.Shard, s.BorderPipes, s.Lookahead, s.IngressCross, border, look, ingress)
	}
}

// workerSync builds shard o's sync inputs the way a federated worker does:
// from its shard view's skeleton, a POD over the view's links (-1 outside
// it), and a binding over the shipped VN world map.
func workerSync(t *testing.T, view *bind.ShardView, vnHome []topology.NodeID, homes []int, floor func(topology.LinkID, vtime.Duration) vtime.Duration) ShardSync {
	t.Helper()
	skel, err := view.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, view.NumLinks)
	for i := range owner {
		owner[i] = -1
	}
	for i, l := range view.Links {
		owner[l.ID] = int(view.LinkOwner[i])
	}
	b := bind.NewBinding(vnHome, view.NumNodes, 0, view.Cores)
	return ComputeShardSync(skel, b, bind.NewPOD(owner, view.Cores), homes, view.Cores, view.Shard, floor)
}

// TestShardSyncMatchesReferenceAndWorker is the property behind the one sync
// computation: on ring and transit-stub worlds, over k-clusters seeds and
// k = 2..4, with and without a dynamics latency floor, every shard's border
// pipes, lookahead and ingress flag equal the naive reference, and the
// one-shard computation a worker runs over its view equals the whole-graph
// entry in those fields, in EventCross, and in VNCross for its homed VNs.
// A scattered assignment (pipe i on shard i mod k), which splits access
// links from their VNs, checks the reference half where ingress crossings
// and peer-homed terminal VNs occur.
func TestShardSyncMatchesReferenceAndWorker(t *testing.T) {
	ring := topology.LinkAttrs{BandwidthBps: 20e6, LatencySec: topology.Ms(5), QueuePkts: 64}
	access := topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: topology.Ms(1), QueuePkts: 64}
	tstub := func(seed int64) *topology.Graph {
		return topology.TransitStub(topology.TransitStubConfig{
			TransitDomains: 2, TransitPerDomain: 3, StubsPerTransit: 2, RoutersPerStub: 3, ClientsPerStub: 2,
			TransitTransit:    topology.LinkAttrs{BandwidthBps: 155e6, LatencySec: topology.Ms(20), QueuePkts: 50},
			TransitStub:       topology.LinkAttrs{BandwidthBps: 45e6, LatencySec: topology.Ms(10), QueuePkts: 50},
			StubStub:          topology.LinkAttrs{BandwidthBps: 100e6, LatencySec: topology.Ms(2), QueuePkts: 50},
			ClientStub:        topology.LinkAttrs{BandwidthBps: 1e6, LatencySec: topology.Ms(1), QueuePkts: 10},
			ExtraStubEdgeProb: 0.3, Seed: seed,
		})
	}
	type world struct {
		name string
		g    *topology.Graph
	}
	worlds := []world{
		{"ring8x2", topology.Ring(8, 2, ring, access)},
		{"ring12x3", topology.Ring(12, 3, ring, access)},
		{"tstub1", tstub(1)},
		{"tstub2", tstub(2)},
	}
	checked, floorMoved := 0, false
	for _, w := range worlds {
		name, g := w.name, w.g
		// A dip on every third link, to a latency that varies by link.
		dips := &dynamics.Spec{}
		for id := 0; id < g.NumLinks(); id += 3 {
			dip := dynamics.At(100 * vtime.Millisecond)
			dip.Latency = vtime.Duration(id%5+1) * 200 * vtime.Microsecond
			dips.Profiles = append(dips.Profiles, dynamics.Profile{Link: id, Steps: []dynamics.Step{dip}})
		}
		for k := 2; k <= 4; k++ {
			for seed := int64(1); seed <= 3; seed++ {
				asn, err := assign.KClusters(g, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				views, err := bind.BuildShardViews(g, asn.Owner, asn.NodeOwner, k)
				if err != nil {
					t.Fatal(err)
				}
				b := bind.NewBinding(g.Clients(), g.NumNodes(), 0, k)
				pod := asn.POD()
				homes := Homes(g, b, pod, k)
				unfloored := ComputeSyncPlan(g, b, pod, homes, k, nil)
				for _, floor := range []func(topology.LinkID, vtime.Duration) vtime.Duration{nil, dips.LatencyFloorFunc()} {
					at := fmt.Sprintf("%s k=%d seed=%d floored=%v", name, k, seed, floor != nil)
					whole := ComputeSyncPlan(g, b, pod, homes, k, floor)
					for o, s := range whole {
						matchReference(t, at, g, b, pod, homes, s, floor)
						w := workerSync(t, views[o], b.VNHome, homes, floor)
						if !reflect.DeepEqual(w.BorderPipes, s.BorderPipes) || w.Lookahead != s.Lookahead || w.IngressCross != s.IngressCross {
							t.Fatalf("%s shard %d: worker border %v lookahead %v ingress %v, whole graph %v %v %v",
								at, o, w.BorderPipes, w.Lookahead, w.IngressCross, s.BorderPipes, s.Lookahead, s.IngressCross)
						}
						if !reflect.DeepEqual(w.EventCross, s.EventCross) {
							t.Fatalf("%s shard %d: worker EventCross %v, whole graph %v", at, o, w.EventCross, s.EventCross)
						}
						for j := range s.VNCross {
							for v, h := range homes {
								if j != o && h == o && w.VNCross[j][v] != s.VNCross[j][v] {
									t.Fatalf("%s shard %d: worker VNCross[%d][%d] %v, whole graph %v", at, o, j, v, w.VNCross[j][v], s.VNCross[j][v])
								}
							}
						}
						checked++
						floorMoved = floorMoved || s.Lookahead != unfloored[o].Lookahead
					}
				}
			}
		}
	}
	// End-to-end distillation gives every VN node a pipe to every other VN,
	// so a VN can inject into a pipe its home does not own.
	e2e, err := distill.Distill(tstub(1), distill.Spec{Mode: distill.EndToEnd})
	if err != nil {
		t.Fatal(err)
	}
	scattered := 0
	for _, w := range append(worlds, world{"tstub1-e2e", e2e.Graph}) {
		g := w.g
		for k := 2; k <= 4; k++ {
			owner := make([]int, g.NumLinks())
			for i := range owner {
				owner[i] = i % k
			}
			b, pod := bind.NewBinding(g.Clients(), g.NumNodes(), 0, k), bind.NewPOD(owner, k)
			homes := Homes(g, b, pod, k)
			for _, s := range ComputeSyncPlan(g, b, pod, homes, k, nil) {
				matchReference(t, fmt.Sprintf("%s k=%d scattered", w.name, k), g, b, pod, homes, s, nil)
				if s.IngressCross {
					scattered++
				}
			}
		}
	}
	if scattered == 0 {
		t.Fatal("no scattered shard has an ingress crossing")
	}
	if checked == 0 || !floorMoved {
		t.Fatalf("checked %d shards; the floor moved a lookahead: %v", checked, floorMoved)
	}
}
