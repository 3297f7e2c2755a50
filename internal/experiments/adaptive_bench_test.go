package experiments

// CI smoke for the grant algebra's two performance claims, sized to run
// inside the regular test budget:
//
//   - window reduction: on an 8×4 cfs-ring (the ledger's cfs-fed2 shape)
//     the in-process run takes exactly the pinned number of windows, several
//     times fewer than a strict fixed-quantum cadence (duration / static
//     lookahead) would.
//   - federation beats sequential: on a multi-core host the parallel and
//     federated ring-cbr runs must finish in less wall time than the
//     sequential run. Hosts without enough CPUs skip (a 1-CPU host can
//     only measure synchronization overhead).

import (
	"runtime"
	"testing"

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
	res := run(t, scenarioOf(t, ScenarioCFSRing, spec), inprocMode(2))
	if res.Totals.Delivered == 0 {
		t.Fatal("degenerate run: nothing delivered")
	}
	// In-process windows are a function of the seed alone: the shards'
	// bounds are deterministic and the in-process transport leaves nothing
	// in flight. A change to the grant algebra moves this number (the
	// uniform-window algebra took 806 windows here); a change that claims
	// to leave it alone must not.
	const pinned = 539
	w := res.Sync.Windows
	if w != pinned {
		t.Errorf("windows = %d, pinned %d — the grant sequence changed", w, pinned)
	}
	// Against a strict fixed-quantum cadence at the static lookahead (the
	// shape of the paper's real-time timer), the reduction must be ≥ 4×.
	quantum := uint64(spec.DurationSec * 1000 / 5) // 5 ms static lookahead on the ring
	if w >= quantum/4 {
		t.Errorf("windows %d not under 1/4 of the %d a strict 5 ms quantum would cost", w, quantum)
	}
	t.Logf("windows: %d, strict-quantum %d; mean grant %v", w, quantum, res.Sync.GrantMean())
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
	par := run(t, sc, inprocMode(2))
	fed := run(t, sc, fedMode(2, fednet.DataUDP))
	if seq.Totals != par.Totals || seq.Totals != fed.Totals {
		t.Fatalf("modes disagree on outcomes:\n seq    %+v\n inproc %+v\n fednet %+v",
			seq.Totals, par.Totals, fed.Totals)
	}
	t.Logf("wall: seq %.0f ms, inproc@2 %.0f ms, fednet@2 %.0f ms",
		seq.WallMS, par.WallMS, fed.WallMS)
	if par.WallMS >= seq.WallMS {
		t.Errorf("inproc@2 (%.0f ms) did not beat sequential (%.0f ms)", par.WallMS, seq.WallMS)
	}
	if fed.WallMS >= seq.WallMS {
		t.Errorf("fednet@2 (%.0f ms) did not beat sequential (%.0f ms)", fed.WallMS, seq.WallMS)
	}
}
