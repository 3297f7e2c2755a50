package fednet_test

// The crash-sweep fault-injection suite: a federation that loses a worker
// mid-run, respawns it, and replays it back must end byte-identical — same
// counters, same delivery times, same drop taxonomy, same canonical packet
// trace — to a federation that never crashed. The sweep varies the killed
// shard, the kill round (including the pre-first-checkpoint window and a
// checkpoint round itself), the data plane, and the worker count; a real-SIGKILL smoke covers unannounced process death.
// Alongside it, the liveness regression: with recovery off, a worker death
// must surface promptly as an error naming the dead shard, never a hang.

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"modelnet"
	"modelnet/internal/fednet"
	"modelnet/internal/fednet/wire"
	"modelnet/internal/obs"
)

// ringOptions assembles the standard test-ring federation options.
func ringOptions(cores int, plane string) fednet.Options {
	return fednet.Options{
		Scenario:          "fednet-test-ring",
		Params:            testParams,
		Cores:             cores,
		Seed:              7,
		Profile:           idealPtr(),
		RunFor:            modelnet.Seconds(testRunFor),
		DataPlane:         plane,
		Spawn:             true,
		CollectDeliveries: true,
		Trace:             true,
	}
}

// baseline runs the federation without faults and returns its report.
func baseline(t *testing.T, cores int, plane string) *fednet.Report {
	t.Helper()
	rep, err := fednet.Run(ringOptions(cores, plane))
	if err != nil {
		t.Fatalf("baseline (%d cores, %s): %v", cores, plane, err)
	}
	if rep.Totals.Delivered == 0 {
		t.Fatal("baseline delivered nothing — sweep would be vacuous")
	}
	return rep
}

// sameOutcome asserts a recovered run's externally visible outcome is
// byte-identical to the baseline's. Frames and BytesOnWire are deliberately
// not compared: recovery resends the peers' send logs, so wire costs differ
// while the emulation outcome must not.
func sameOutcome(t *testing.T, name string, want, got *fednet.Report) {
	t.Helper()
	if want.Totals != got.Totals {
		t.Errorf("%s: totals diverge:\n baseline  %+v\n recovered %+v", name, want.Totals, got.Totals)
	}
	wd := append([]float64(nil), want.Deliveries...)
	gd := append([]float64(nil), got.Deliveries...)
	sort.Float64s(wd)
	sort.Float64s(gd)
	if len(wd) != len(gd) {
		t.Fatalf("%s: delivery counts diverge: %d vs %d", name, len(wd), len(gd))
	}
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("%s: delivery time %d diverges: %v vs %v", name, i, wd[i], gd[i])
		}
	}
	if !equalVec(want.PipeDrops, got.PipeDrops) {
		t.Errorf("%s: per-pipe drops diverge:\n baseline  %v\n recovered %v", name, want.PipeDrops, got.PipeDrops)
	}
	if !equalVec(want.DropsByReason, got.DropsByReason) {
		t.Errorf("%s: drop taxonomy diverges:\n baseline  %v\n recovered %v", name, want.DropsByReason, got.DropsByReason)
	}
	if want.Trace == nil || got.Trace == nil {
		t.Fatalf("%s: missing trace (baseline %v, recovered %v)", name, want.Trace != nil, got.Trace != nil)
	}
	if !bytes.Equal(want.Trace.CanonicalBytes(), got.Trace.CanonicalBytes()) {
		t.Errorf("%s: canonical packet traces diverge", name)
	}
}

func equalVec(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCrashSweepDeterminism is the core of the fault-injection harness: for
// each worker count, kill each shard at a sweep of rounds — before the
// first checkpoint, at a checkpoint round, and past several periods — and
// demand the recovered run's outcome byte-identical to the never-crashed
// baseline's.
func TestCrashSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	for _, cores := range []int{2, 3, 4} {
		want := baseline(t, cores, fednet.DataUDP)
		for shard := 0; shard < cores; shard++ {
			// Round 1 crashes before any checkpoint exists (empty replay
			// prefix), round 4 lands on a DefaultCkptEvery boundary, round 9
			// exercises a multi-period replay.
			for _, round := range []int{1, 4, 9} {
				opts := ringOptions(cores, fednet.DataUDP)
				opts.Recover = true
				opts.FailSpec = &fednet.FailSpec{Shard: shard, Round: round}
				rep, err := fednet.Run(opts)
				name := nameOf("crash", cores, shard, round)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if rep.Recoveries != 1 {
					t.Fatalf("%s: %d recoveries recorded, want exactly 1 (fault did not fire or cascaded)", name, rep.Recoveries)
				}
				if rep.RecoveryWallNs <= 0 {
					t.Errorf("%s: recovery wall time not accounted", name)
				}
				sameOutcome(t, name, want, rep)
			}
		}
	}
}

// TestCrashSweepPlanesAndAlgebras re-runs the crash at one fixed point on
// both data planes: the recovery handshake lives partly in the data plane
// (endpoint swap, log resend), so each plane must prove itself. The name is
// kept for the suite's test history; there is one sync algebra to sweep.
func TestCrashSweepPlanesAndAlgebras(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	for _, plane := range []string{fednet.DataUDP, fednet.DataTCP} {
		want := baseline(t, 2, plane)
		opts := ringOptions(2, plane)
		opts.Recover = true
		opts.FailSpec = &fednet.FailSpec{Shard: 1, Round: 3}
		rep, err := fednet.Run(opts)
		name := "crash 2w " + plane
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Recoveries != 1 {
			t.Fatalf("%s: %d recoveries, want 1", name, rep.Recoveries)
		}
		sameOutcome(t, name, want, rep)
	}
}

// TestSigkillRecovery is the chaos smoke: a real, unannounced SIGKILL —
// racing the round's own frames rather than dying at a protocol-quiet point
// — must recover to the same byte-identical outcome.
func TestSigkillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	want := baseline(t, 2, fednet.DataUDP)
	opts := ringOptions(2, fednet.DataUDP)
	opts.Recover = true
	opts.FailSpec = &fednet.FailSpec{Shard: 1, Round: 3, Mode: fednet.FailSigkill}
	rep, err := fednet.Run(opts)
	if err != nil {
		t.Fatalf("sigkill recovery: %v", err)
	}
	if rep.Recoveries != 1 {
		t.Fatalf("sigkill recovery: %d recoveries, want 1", rep.Recoveries)
	}
	sameOutcome(t, "sigkill 2w", want, rep)
}

// TestCheckpointDirPersistence: with -ckpt-dir set, the coordinator must
// leave each shard's latest digest on disk, and the blobs must decode.
func TestCheckpointDirPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	dir := t.TempDir()
	opts := ringOptions(2, fednet.DataUDP)
	opts.Recover = true
	opts.CkptEvery = 2
	opts.CkptDir = dir
	opts.FailSpec = &fednet.FailSpec{Shard: 0, Round: 5}
	rep, err := fednet.Run(opts)
	if err != nil {
		t.Fatalf("ckpt-dir run: %v", err)
	}
	if rep.Recoveries != 1 {
		t.Fatalf("ckpt-dir run: %d recoveries, want 1", rep.Recoveries)
	}
	for shard := 0; shard < 2; shard++ {
		path := filepath.Join(dir, "shard-0.ckpt")
		if shard == 1 {
			path = filepath.Join(dir, "shard-1.ckpt")
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("persisted checkpoint: %v", err)
		}
		if _, err := wire.DecodeCheckpoint(blob); err != nil {
			t.Errorf("persisted checkpoint for shard %d does not decode: %v", shard, err)
		}
	}
}

// TestWorkerDeathWithoutRecovery is the liveness regression: with recovery
// off, a worker death must yield a prompt, clean coordinator error naming
// the dead shard — not a hang until the barrier timeout.
func TestWorkerDeathWithoutRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	opts := ringOptions(2, fednet.DataUDP)
	opts.FailSpec = &fednet.FailSpec{Shard: 1, Round: 2}
	_, err := fednet.Run(opts)
	if err == nil {
		t.Fatal("worker died mid-run but Run reported success")
	}
	if !strings.Contains(err.Error(), "shard 1 died") {
		t.Errorf("error does not name the dead shard: %v", err)
	}
}

// TestRecoveryCountersInProfile: the recovery counters must flow into the
// flattened obs.RunProfile artifact.
func TestRecoveryCountersInProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	opts := ringOptions(2, fednet.DataUDP)
	opts.Recover = true
	opts.FailSpec = &fednet.FailSpec{Shard: 0, Round: 2}
	rep, err := fednet.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var p obs.RunProfile = rep.RunProfile()
	if p.Recoveries != 1 {
		t.Errorf("profile records %d recoveries, want 1", p.Recoveries)
	}
	if p.RecoveryWallMS <= 0 {
		t.Errorf("profile records no recovery wall time")
	}
}

func nameOf(prefix string, cores, shard, round int) string {
	return prefix + " " + strings.Join([]string{
		itoa(cores) + "w", "shard" + itoa(shard), "round" + itoa(round),
	}, " ")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
