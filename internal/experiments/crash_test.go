package experiments

// Crash recovery under a full application workload: the flaky-edge scenario
// carries everything the runtime can hold — scripted link dynamics, lossy
// pipes forcing netstack TCP retransmission state, web-replica application
// state, and a packet trace — and a worker crash mid-run must still
// reconverge byte-identically. This is the strongest recovery check in the
// repo: the respawned worker rebuilds all of that state purely by
// deterministic replay, and the sequential baseline is the referee.

import (
	"fmt"
	"testing"

	"modelnet"
	"modelnet/internal/fednet"
)

// crashMode is a 2-worker federation with recovery armed and one planted
// worker fault.
func crashMode(plane string, shard, round int) modelnet.Options {
	mode := fedMode(2, plane)
	mode.Federate.Recover = true
	mode.Federate.Fail = &modelnet.FailSpec{Shard: shard, Round: round}
	return mode
}

func TestCrashRecoveryFlakyEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	sc := scenarioOf(t, ScenarioFlakyEdge, flakySmallSpec(t, 2))
	traced := seqMode()
	traced.Trace = true
	seq := run(t, sc, traced)
	want := canonOf(t, "flaky seq", seq.Trace)
	for _, shard := range []int{0, 1} {
		mode := crashMode(fednet.DataUDP, shard, 5)
		mode.Trace = true
		fed := run(t, sc, mode)
		name := fmt.Sprintf("flaky crash shard %d", shard)
		if fed.Fed.Recoveries != 1 {
			t.Fatalf("%s: %d recoveries, want 1", name, fed.Fed.Recoveries)
		}
		// Counters, drop vectors, delivery times and the application-level
		// report — requests served, retransmissions, latency sums accumulated
		// inside the workers' netstack TCP state — must survive the respawn,
		// and so must the canonical trace.
		sameRun(t, name, seq, fed)
		sameTrace(t, name, want, canonOf(t, name, fed.Trace))
	}
}

// TestCrashRecoveryCFSRing crashes a worker of the CFS workload over the
// TCP data plane: recovery must replace a connection in the TCP mesh (not
// just swap a UDP source address) and replay Chord lookups and block
// fetches whose bodies ride the recursive payload codecs.
func TestCrashRecoveryCFSRing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	sc := scenarioOf(t, ScenarioCFSRing, cfsSmallSpec())
	seq := run(t, sc, seqMode())
	fed := run(t, sc, crashMode(fednet.DataTCP, 1, 4))
	if fed.Fed.Recoveries != 1 {
		t.Fatalf("%d recoveries, want 1", fed.Fed.Recoveries)
	}
	sameRun(t, "cfs-ring crash recovery", seq, fed)
}

// TestCrashRecoveryTStubCBR crashes a worker of the sharded-distribution
// workload: the respawned worker holds only its shard view, so it must page
// its route summaries again on the way back to the crash round.
func TestCrashRecoveryTStubCBR(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	spec := tstubSmallSpec()
	sc := scenarioOf(t, ScenarioTStubCBR, spec)
	cached := seqMode()
	cached.RouteCache = spec.Servers + 8
	seq := run(t, sc, cached)
	fed := run(t, sc, crashMode(fednet.DataUDP, 1, 3))
	if fed.Fed.Recoveries != 1 {
		t.Fatalf("%d recoveries, want 1", fed.Fed.Recoveries)
	}
	sameRun(t, "tstub-cbr crash recovery", seq, fed)
	for _, w := range fed.Fed.Workers {
		if w.RouteRPCs == 0 {
			t.Errorf("shard %d paged no route summaries", w.Shard)
		}
	}
}
