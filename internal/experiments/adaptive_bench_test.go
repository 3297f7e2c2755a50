package experiments

// CI smoke for the adaptive synchronization algebra's two performance
// claims, sized to run inside the regular test budget:
//
//   - window reduction: on an 8×4 cfs-ring (the ledger's cfs-fed2 shape)
//     the adaptive algebra must barrier substantially less often than the
//     fixed event-driven baseline, and an order of magnitude less often than
//     a strict fixed-quantum cadence (duration / static lookahead) would.
//   - federation beats sequential: on a multi-core host the parallel and
//     federated ring-cbr runs must finish in less wall time than the
//     sequential run. Hosts without enough CPUs skip (a 1-CPU host can
//     only measure synchronization overhead).

import (
	"runtime"
	"testing"

	"modelnet"
	"modelnet/internal/fednet"
)

func TestAdaptiveSyncWindowReduction(t *testing.T) {
	spec := CFSRingSpec{
		Routers:      8,
		VNsPerRouter: 4,
		FileKB:       1024,
		WindowKB:     24,
		Downloaders:  []int{0, 9, 17, 25},
		DurationSec:  20,
		Seed:         21,
	}
	sc := scenarioOf(t, ScenarioCFSRing, spec)
	adaptive := run(t, sc, inprocMode(2, modelnet.SyncAdaptive))
	fixed := run(t, sc, inprocMode(2, modelnet.SyncFixed))
	if adaptive.Totals != fixed.Totals {
		t.Fatalf("algebras disagree on outcomes:\n adaptive %+v\n fixed    %+v", adaptive.Totals, fixed.Totals)
	}
	aw, fw := adaptive.Sync.Windows, fixed.Sync.Windows
	if aw == 0 || fw == 0 {
		t.Fatalf("degenerate run: %d adaptive / %d fixed windows", aw, fw)
	}
	// The fixed baseline is already event-driven (it jumps idle gaps), so
	// the bar against it is 3/4; during continuous streaming the adaptive
	// horizon advances by the announcement lead per window, which bounds
	// the achievable ratio (DESIGN.md §2).
	if 4*aw > 3*fw {
		t.Errorf("adaptive windows %d > 3/4 of fixed %d — the horizon algebra stopped paying", aw, fw)
	}
	// Against a strict fixed-quantum cadence at the static lookahead (the
	// shape of the paper's real-time timer), the reduction must be ≥ 4×.
	quantum := uint64(spec.DurationSec * 1000 / 5) // 5 ms static lookahead on the ring
	if aw >= quantum/4 {
		t.Errorf("adaptive windows %d not under 1/4 of the %d a strict 5 ms quantum would cost", aw, quantum)
	}
	// Fewer windows over the same virtual span means longer grants.
	if adaptive.Sync.GrantMean() < fixed.Sync.GrantMean() {
		t.Errorf("adaptive mean grant %v below the fixed cadence %v", adaptive.Sync.GrantMean(), fixed.Sync.GrantMean())
	}
	t.Logf("windows: adaptive %d, fixed %d, strict-quantum %d; mean grant: adaptive %v, fixed %v",
		aw, fw, quantum, adaptive.Sync.GrantMean(), fixed.Sync.GrantMean())
}

func TestAdaptiveSyncFederationSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; parallel wall time would measure overhead, not speedup", runtime.NumCPU())
	}
	// The paper's 20×20 ring (the ledger's ring-seq shape).
	sc := scenarioOf(t, ScenarioRingCBR, RingCBRSpec{
		Routers:       20,
		VNsPerRouter:  20,
		PacketsPerSec: 200,
		PacketBytes:   1000,
		DurationSec:   4,
		Seed:          11,
	})
	seq := run(t, sc, seqMode())
	par := run(t, sc, inprocMode(2, modelnet.SyncAdaptive))
	fed := run(t, sc, fedMode(2, fednet.DataUDP, modelnet.SyncAdaptive))
	if seq.Totals != par.Totals || seq.Totals != fed.Totals {
		t.Fatalf("modes disagree on outcomes:\n seq    %+v\n inproc %+v\n fednet %+v",
			seq.Totals, par.Totals, fed.Totals)
	}
	t.Logf("wall: seq %.0f ms, inproc@2 %.0f ms, fednet@2 %.0f ms (adaptive)",
		seq.WallMS, par.WallMS, fed.WallMS)
	if par.WallMS >= seq.WallMS {
		t.Errorf("inproc@2 (%.0f ms) did not beat sequential (%.0f ms)", par.WallMS, seq.WallMS)
	}
	if fed.WallMS >= seq.WallMS {
		t.Errorf("fednet@2 (%.0f ms) did not beat sequential (%.0f ms)", fed.WallMS, seq.WallMS)
	}
}
