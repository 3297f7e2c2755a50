package experiments

// The sharded-distribution contract on the transit-stub workload, at two
// sizes: a small population where all three runtimes can run (tstubSmallSpec:
// a row of the cross-mode table in determinism_test.go and a crash-recovery
// case, with the local baseline on the demand-built route cache instead of
// the O(n²) matrix), and a large 50k-VN population where only the federation
// runs and the assertions are about footprint — per-worker setup bytes and
// materialized pipes must be a fraction of the world, and route state must
// arrive by demand paging.

import (
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/fednet"
	"modelnet/internal/fednet/wire"
	"modelnet/internal/topology"
)

func tstubSmallSpec() TStubCBRSpec {
	return TStubCBRSpec{
		TransitDomains:   2,
		TransitPerDomain: 3,
		StubsPerTransit:  3,
		RoutersPerStub:   2,
		ClientsPerStub:   8,
		Servers:          8,
		Flows:            24,
		PacketsPerSec:    50,
		PacketBytes:      600,
		DurationSec:      1.5,
		Seed:             51,
	}
}

// TestShardedDistributionScales is the large-topology smoke: ~50k VNs cut
// across 2 worker processes over loopback. It asserts the tentpole's memory
// claim directly — each worker receives a setup stream and materializes a
// pipe set that is a fraction of the world (≈ its half plus the cut
// frontier), with route state paged on demand rather than shipped.
func TestShardedDistributionScales(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses over a 50k-VN world")
	}
	spec := TStubCBRSpec{
		TransitDomains:   10,
		TransitPerDomain: 10,
		StubsPerTransit:  5,
		RoutersPerStub:   4,
		ClientsPerStub:   100, // 10·10·5·100 = 50 000 VNs
		Servers:          16,
		Flows:            32,
		PacketsPerSec:    20,
		PacketBytes:      512,
		DurationSec:      0.5,
		Seed:             71,
	}
	g := spec.Topology()
	totalLinks := g.NumLinks()
	// What a worker's setup stream may cost: one shard-view row per pipe it
	// materializes (the row width is read off the codec, not restated here)
	// plus the VN world map — the only O(world) term — plus 1% for the
	// frontier and summary node lists, the run config and chunk framing.
	oneLink := &bind.ShardView{Cores: 1, NumNodes: 1, NumLinks: 1, Links: []topology.Link{{}}, LinkOwner: []int32{0}}
	rowBytes := len(wire.EncodeShardView(oneLink)) - len(wire.EncodeShardView(&bind.ShardView{Cores: 1}))
	vns := len(g.Clients())
	worldBytes := len(wire.EncodeWorld(wire.World{VNHome: make([]int32, vns), Homes: make([]int32, vns)}))

	fed := run(t, scenarioOf(t, ScenarioTStubCBR, spec), fedMode(2, fednet.DataTCP)).Fed
	if fed.Totals.Delivered == 0 {
		t.Fatal("50k-VN federation delivered nothing")
	}
	if fed.Totals.NoRoute > 0 {
		t.Fatalf("50k-VN federation had %d unroutable packets", fed.Totals.NoRoute)
	}
	sumPipes := 0
	for _, w := range fed.Workers {
		if w.SetupBytes == 0 || w.StartupWallNs == 0 {
			t.Fatalf("shard %d reported no setup cost: %+v", w.Shard, w)
		}
		ceiling := uint64(rowBytes*w.MaterializedPipes+worldBytes) * 101 / 100
		if w.SetupBytes > ceiling {
			t.Errorf("shard %d setup is %d bytes for %d materialized pipes: over the %d-byte ceiling (%d per pipe + %d world map + 1%%)",
				w.Shard, w.SetupBytes, w.MaterializedPipes, ceiling, rowBytes, worldBytes)
		}
		t.Logf("shard %d: setup %d bytes, ceiling %d, pipes %d/%d, route RPCs %d", w.Shard, w.SetupBytes, ceiling, w.MaterializedPipes, totalLinks, w.RouteRPCs)
		// Materialized pipes ≈ owned half + incoming frontier. A worker
		// holding over 65%% of the world's pipes is not sharded; under 25%%
		// would mean the cut is pathologically unbalanced.
		frac := float64(w.MaterializedPipes) / float64(totalLinks)
		if frac > 0.65 || frac < 0.25 {
			t.Errorf("shard %d materialized %d/%d pipes (%.0f%%), outside the half-plus-frontier envelope",
				w.Shard, w.MaterializedPipes, totalLinks, frac*100)
		}
		if w.RouteRPCs == 0 {
			t.Errorf("shard %d paged no route summaries", w.Shard)
		}
		sumPipes += w.MaterializedPipes
	}
	// Every link is owned by exactly one shard and frontier copies only
	// add: the fleet together must cover the world.
	if sumPipes < totalLinks {
		t.Errorf("workers together materialized %d pipes < %d links — part of the world went unemulated", sumPipes, totalLinks)
	}
}
