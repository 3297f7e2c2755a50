package experiments

// The parallel runtime's determinism contract, exercised on real
// application workloads: running the gnutella scale study and a CFS
// download with the same seed under sequential and parallel modes must
// produce byte-identical conservation counters and identical delivery-time
// CDFs (internal/stats). The federated tests extend the same contract to
// real multi-process runs over loopback sockets: 1-process sequential,
// N-goroutine parallel, and N-process federated executions must agree.
// See DESIGN.md for the contract's scope.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"modelnet"
	"modelnet/internal/fednet"
	"modelnet/internal/pipes"
	"modelnet/internal/stats"
)

func sameCDF(t *testing.T, name string, a, b *stats.Sample) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("%s: delivery count %d vs %d", name, a.N(), b.N())
	}
	ac, bc := a.CDFAt(64), b.CDFAt(64)
	if len(ac) != len(bc) {
		t.Fatalf("%s: CDF lengths %d vs %d", name, len(ac), len(bc))
	}
	for i := range ac {
		if ac[i] != bc[i] {
			t.Fatalf("%s: CDF diverges at point %d: %+v vs %+v", name, i, ac[i], bc[i])
		}
	}
}

func TestGnutellaSeqParDeterminism(t *testing.T) {
	cfg := ScaleConfig{
		Servents: 200,
		Degree:   4,
		TTL:      7,
		EdgeVNs:  25,
		Window:   modelnet.Seconds(10),
		Seed:     15,
		Cores:    4,
	}
	seqCfg, parCfg := cfg, cfg
	parCfg.Parallel = true
	seq, err := RunScale(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunScale(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Reachable != par.Reachable || seq.Forwarded != par.Forwarded ||
		seq.Duplicates != par.Duplicates || seq.CorePkts != par.CorePkts {
		t.Errorf("gnutella diverges:\n sequential %+v\n parallel   %+v", seq, par)
	}
	if seq.Reachable < cfg.Servents/2 {
		t.Errorf("flood barely spread: %d/%d reachable", seq.Reachable, cfg.Servents)
	}
	sameCDF(t, "gnutella", seq.Deliveries, par.Deliveries)
}

// cfsRun builds a CFS cluster, downloads the striped file from two nodes,
// and returns the counters plus the delivery-time sample.
func cfsRun(t *testing.T, parallel bool) (uint64, uint64, uint64, *stats.Sample, float64) {
	t.Helper()
	ideal := modelnet.IdealProfile()
	cfg := DefaultCFS()
	cfg.Cores = 3
	cfg.Parallel = parallel
	cfg.Profile = &ideal
	cl, err := newCFSCluster(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	sample := &stats.Sample{}
	var mu sync.Mutex
	cl.em.OnDeliver(func(pkt *pipes.Packet, at modelnet.Time) {
		mu.Lock()
		sample.Add(at.Seconds())
		mu.Unlock()
	})
	speed := 0.0
	for _, node := range []int{0, 6} {
		sp, err := cl.download(cfg, node, 24<<10)
		if err != nil {
			t.Fatal(err)
		}
		speed += sp
	}
	tot := cl.em.Totals()
	return tot.Injected, tot.Delivered, tot.NoRoute, sample, speed
}

// fednetRingSpec is the federated determinism workload: small enough to
// run three times per test, large enough that traffic genuinely crosses
// shards.
func fednetRingSpec() RingCBRSpec {
	return RingCBRSpec{
		Routers:       8,
		VNsPerRouter:  4,
		PacketsPerSec: 50,
		PacketBytes:   600,
		DurationSec:   2,
		Seed:          11,
	}
}

// sampleOf turns a federated run's merged delivery times into a Sample
// comparable with the local runners' (CDFAt sorts internally, so shard
// interleaving is irrelevant).
func sampleOf(rep *fednet.Report) *stats.Sample {
	s := &stats.Sample{}
	s.AddAll(rep.Deliveries)
	return s
}

func TestRingFednetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := fednetRingSpec()
	seq, err := RunRingCBRLocal(spec, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Totals.Delivered == 0 {
		t.Fatal("ring run delivered nothing")
	}
	for _, sm := range []modelnet.SyncMode{modelnet.SyncAdaptive, modelnet.SyncFixed} {
		par, err := RunRingCBRLocal(spec, 4, true, false, WithSync(sm))
		if err != nil {
			t.Fatal(err)
		}
		if seq.Totals != par.Totals {
			t.Errorf("ring counters diverge (%s):\n sequential %+v\n parallel   %+v", sm, seq.Totals, par.Totals)
		}
		sameCDF(t, "ring seq vs par "+sm.String(), seq.Deliveries, par.Deliveries)
	}
	for _, fp := range fedPlanes {
		fed, err := RunRingCBRFederated(spec, fp.cores, fp.plane, WithSync(fp.sync))
		if err != nil {
			t.Fatalf("%d workers over %s (%s): %v", fp.cores, fp.plane, fp.sync, err)
		}
		name := fmtPlane("ring", fp.cores, fp.plane, fp.sync)
		if seq.Totals != fed.Totals {
			t.Errorf("%s: counters diverge:\n sequential %+v\n federated  %+v", name, seq.Totals, fed.Totals)
		}
		sameCDF(t, name, seq.Deliveries, sampleOf(fed))
		if fed.Sync.Messages == 0 {
			t.Errorf("%s: no cross-core messages — the comparison is vacuous", name)
		}
	}
}

// TestPacedRingFednetDeterminism: real-time pacing decides when a window is
// released, never what it computes. With no live edge there is no wall-clock
// input at all, so a paced federated run must land on the sequential run's
// counters and delivery times like any other — on the same barrier round.
func TestPacedRingFednetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses and paces them against the wall clock")
	}
	spec := fednetRingSpec()
	spec.DurationSec = 0.3
	seq, err := RunRingCBRLocal(spec, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := RunRingCBRFederated(spec, 2, fednet.DataUDP,
		WithFedOptions(func(o *fednet.Options) { o.RealTime = true }))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Totals != fed.Totals {
		t.Errorf("paced ring: counters diverge:\n sequential %+v\n federated  %+v", seq.Totals, fed.Totals)
	}
	sameCDF(t, "paced ring", seq.Deliveries, sampleOf(fed))
	if seq.Totals.Delivered == 0 || fed.Sync.Messages == 0 {
		t.Errorf("vacuous comparison: %d delivered, %d cross-core messages", seq.Totals.Delivered, fed.Sync.Messages)
	}
	if want := spec.RunFor().Seconds() * 1000; fed.WallMS < want {
		t.Errorf("run took %.0f ms of wall clock for %.0f ms of virtual time: it was not paced", fed.WallMS, want)
	}
}

func TestGnutellaFednetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := GnutellaRingSpec{
		Routers:      10,
		VNsPerRouter: 12,
		Degree:       4,
		TTL:          6,
		WindowSec:    8,
		Seed:         15,
	}
	seq, err := RunGnutellaRingLocal(spec, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGnutellaRingLocal(spec, 4, true, false)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := RunGnutellaRingFederated(spec, 2, fednet.DataTCP)
	if err != nil {
		t.Fatal(err)
	}
	fedRep, err := GnutellaFederatedReport(fed)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Gnutella.Reachable < spec.Servents()/2 {
		t.Errorf("flood barely spread: %d/%d reachable", seq.Gnutella.Reachable, spec.Servents())
	}
	if seq.Gnutella != par.Gnutella {
		t.Errorf("gnutella overlay results diverge:\n sequential %+v\n parallel   %+v", seq.Gnutella, par.Gnutella)
	}
	if seq.Gnutella != fedRep {
		t.Errorf("gnutella overlay results diverge:\n sequential %+v\n federated  %+v", seq.Gnutella, fedRep)
	}
	if seq.Totals != par.Totals {
		t.Errorf("gnutella counters diverge:\n sequential %+v\n parallel   %+v", seq.Totals, par.Totals)
	}
	if seq.Totals != fed.Totals {
		t.Errorf("gnutella counters diverge:\n sequential %+v\n federated  %+v", seq.Totals, fed.Totals)
	}
	sameCDF(t, "gnutella seq vs par", seq.Deliveries, par.Deliveries)
	sameCDF(t, "gnutella seq vs fednet", seq.Deliveries, sampleOf(fed))
	if fed.Sync.Messages == 0 {
		t.Error("federated gnutella exchanged no cross-core messages — the comparison is vacuous")
	}
}

// fedPlanes are the (workers, data plane, sync algebra) points the federated
// suite covers: both planes at 2, 3, and 4 worker processes, each under the
// adaptive grant algebra and the fixed-lookahead baseline. Window boundaries
// differ between the two algebras; counters, reports, and delivery CDFs must
// not.
var fedPlanes = []struct {
	cores int
	plane string
	sync  modelnet.SyncMode
}{
	{2, fednet.DataUDP, modelnet.SyncAdaptive},
	{2, fednet.DataUDP, modelnet.SyncFixed},
	{2, fednet.DataTCP, modelnet.SyncAdaptive},
	{2, fednet.DataTCP, modelnet.SyncFixed},
	{3, fednet.DataUDP, modelnet.SyncAdaptive},
	{3, fednet.DataUDP, modelnet.SyncFixed},
	{3, fednet.DataTCP, modelnet.SyncAdaptive},
	{3, fednet.DataTCP, modelnet.SyncFixed},
	{4, fednet.DataUDP, modelnet.SyncAdaptive},
	{4, fednet.DataUDP, modelnet.SyncFixed},
	{4, fednet.DataTCP, modelnet.SyncAdaptive},
	{4, fednet.DataTCP, modelnet.SyncFixed},
}

// TestCFSRingFednetDeterminism extends the cross-mode contract to the CFS
// workload: Chord lookups and block fetches ride RPC frames whose bodies
// are nested payloads, so every cross-core packet exercises the recursive
// codec layer.
func TestCFSRingFednetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := CFSRingSpec{
		Routers:      4,
		VNsPerRouter: 3,
		FileKB:       64,
		WindowKB:     24,
		Downloaders:  []int{0, 7},
		DurationSec:  5,
		Seed:         21,
	}
	seq, err := RunCFSRingLocal(spec, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.CFS.Downloads) != len(spec.Downloaders) {
		t.Fatalf("expected %d downloads, got %+v", len(spec.Downloaders), seq.CFS.Downloads)
	}
	for _, d := range seq.CFS.Downloads {
		if !d.Done || d.Failed > 0 || d.Bytes != spec.FileKB<<10 {
			t.Errorf("download from node %d incomplete: %+v", d.Node, d)
		}
	}
	for _, sm := range []modelnet.SyncMode{modelnet.SyncAdaptive, modelnet.SyncFixed} {
		par, err := RunCFSRingLocal(spec, 4, true, false, WithSync(sm))
		if err != nil {
			t.Fatal(err)
		}
		if seq.Totals != par.Totals {
			t.Errorf("cfs-ring counters diverge (%s):\n sequential %+v\n parallel   %+v", sm, seq.Totals, par.Totals)
		}
		if !reflect.DeepEqual(seq.CFS, par.CFS) {
			t.Errorf("cfs-ring reports diverge (%s):\n sequential %+v\n parallel   %+v", sm, seq.CFS, par.CFS)
		}
		sameCDF(t, "cfs-ring seq vs par "+sm.String(), seq.Deliveries, par.Deliveries)
	}
	for _, fp := range fedPlanes {
		fed, err := RunCFSRingFederated(spec, fp.cores, fp.plane, WithSync(fp.sync))
		if err != nil {
			t.Fatalf("%d workers over %s (%s): %v", fp.cores, fp.plane, fp.sync, err)
		}
		name := fmtPlane("cfs-ring", fp.cores, fp.plane, fp.sync)
		if seq.Totals != fed.Totals {
			t.Errorf("%s: counters diverge:\n sequential %+v\n federated  %+v", name, seq.Totals, fed.Totals)
		}
		fedRep, err := CFSFederatedReport(fed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.CFS, fedRep) {
			t.Errorf("%s: reports diverge:\n sequential %+v\n federated  %+v", name, seq.CFS, fedRep)
		}
		sameCDF(t, name, seq.Deliveries, sampleOf(fed))
		if fed.Sync.Messages == 0 {
			t.Errorf("%s: no cross-core messages — the comparison is vacuous", name)
		}
	}
}

// TestWebReplRingFednetDeterminism extends the contract to the web-replica
// workload: real netstack TCP connections — handshakes, message markers,
// retransmissions, RTO state — cross core-process boundaries as Segment
// payloads, under link loss that guarantees retransmitted segments span
// the cut.
func TestWebReplRingFednetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	spec := WebReplRingSpec{
		Routers:      6,
		VNsPerRouter: 3,
		LossPct:      1.0,
		TraceSec:     2,
		MinRate:      30,
		MaxRate:      60,
		MedianSize:   8 << 10,
		DrainSec:     6,
		Seed:         31,
	}
	seq, err := RunWebReplRingLocal(spec, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Web.OK == 0 {
		t.Fatalf("no requests completed: %+v", seq.Web)
	}
	if seq.Web.Retransmits == 0 {
		t.Fatalf("lossy ring produced no TCP retransmissions — the workload is not exercising RTO state: %+v", seq.Web)
	}
	par, err := RunWebReplRingLocal(spec, 4, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Totals != par.Totals {
		t.Errorf("webrepl-ring counters diverge:\n sequential %+v\n parallel   %+v", seq.Totals, par.Totals)
	}
	if seq.Web.Comparable() != par.Web.Comparable() {
		t.Errorf("webrepl-ring reports diverge:\n sequential %+v\n parallel   %+v", seq.Web, par.Web)
	}
	sameCDF(t, "webrepl-ring seq vs par", seq.Deliveries, par.Deliveries)
	crossRetransRuns := 0
	for _, fp := range fedPlanes {
		fed, err := RunWebReplRingFederated(spec, fp.cores, fp.plane, WithSync(fp.sync))
		if err != nil {
			t.Fatalf("%d workers over %s (%s): %v", fp.cores, fp.plane, fp.sync, err)
		}
		name := fmtPlane("webrepl-ring", fp.cores, fp.plane, fp.sync)
		if seq.Totals != fed.Totals {
			t.Errorf("%s: counters diverge:\n sequential %+v\n federated  %+v", name, seq.Totals, fed.Totals)
		}
		fedRep, err := WebReplFederatedReport(fed)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Web.Comparable() != fedRep.Comparable() {
			t.Errorf("%s: reports diverge:\n sequential %+v\n federated  %+v", name, seq.Web, fedRep)
		}
		sameCDF(t, name, seq.Deliveries, sampleOf(fed))
		if fed.Sync.Messages == 0 {
			t.Errorf("%s: no cross-core messages — the comparison is vacuous", name)
		}
		if fedRep.CrossRetransmits > 0 {
			crossRetransRuns++
		}
	}
	// The acceptance probe: TCP retransmission state survived a core
	// boundary (a retransmitted segment was re-sent on a connection whose
	// peer lives in another worker process).
	if crossRetransRuns == 0 {
		t.Error("no federated run retransmitted across a core boundary — the TCP-over-the-cut path went unexercised")
	}
}

// TestFlakyEdgeFednetDeterminism extends the contract to link dynamics:
// every ring link replays the bundled wifi contention trace (so pipe
// parameters are functions of virtual time and shard lookahead must come
// from the profile's latency floor) while a cut ring link fails mid-run,
// blackholes traffic until routes reconverge, and later recovers. All
// three runtimes must agree on the conservation counters, the delivery
// CDF, the scenario report, and the per-pipe drop vector — including the
// drops charged to the failed pipe itself.
func TestFlakyEdgeFednetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	base := FlakyEdgeSpec{
		Web: WebReplRingSpec{
			Routers:      6,
			VNsPerRouter: 3,
			LossPct:      0.5,
			TraceSec:     1.5,
			MinRate:      30,
			MaxRate:      60,
			MedianSize:   8 << 10,
			DrainSec:     4.5,
			Seed:         42,
		},
		Trace:           "wifi",
		FailSec:         0.6,
		RecoverSec:      2.4,
		RerouteDelaySec: 0.25,
	}
	// The failed link crosses the k-core partition, so the spec differs per
	// worker count; sequential and in-process runs use the same spec as the
	// federation they are compared against.
	type localPair struct {
		spec FlakyEdgeSpec
		seq  *localRun
	}
	locals := map[int]localPair{}
	for _, fp := range fedPlanes {
		lp, ok := locals[fp.cores]
		if !ok {
			spec := base
			fail, err := spec.CutFailLink(fp.cores)
			if err != nil {
				t.Fatal(err)
			}
			spec.FailLink = fail
			seq, err := RunFlakyEdgeLocal(spec, 1, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Web.OK == 0 {
				t.Fatalf("%d cores: no requests completed: %+v", fp.cores, seq.Web)
			}
			if seq.PipeDrops[spec.FailLink] == 0 {
				t.Errorf("%d cores: failed link %d dropped nothing — the blackhole went unexercised", fp.cores, spec.FailLink)
			}
			for _, sm := range []modelnet.SyncMode{modelnet.SyncAdaptive, modelnet.SyncFixed} {
				par, err := RunFlakyEdgeLocal(spec, fp.cores, true, false, WithSync(sm))
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("flaky-edge seq vs inproc-%d/%s", fp.cores, sm)
				if seq.Totals != par.Totals {
					t.Errorf("%s: counters diverge:\n sequential %+v\n parallel   %+v", name, seq.Totals, par.Totals)
				}
				if seq.Web.Comparable() != par.Web.Comparable() {
					t.Errorf("%s: reports diverge:\n sequential %+v\n parallel   %+v", name, seq.Web, par.Web)
				}
				if !reflect.DeepEqual(seq.PipeDrops, par.PipeDrops) {
					t.Errorf("%s: per-pipe drops diverge:\n sequential %v\n parallel   %v", name, seq.PipeDrops, par.PipeDrops)
				}
				sameCDF(t, name, seq.Deliveries, par.Deliveries)
			}
			lp = localPair{spec: spec, seq: seq}
			locals[fp.cores] = lp
		}
		fed, err := RunFlakyEdgeFederated(lp.spec, fp.cores, fp.plane, WithSync(fp.sync))
		if err != nil {
			t.Fatalf("%d workers over %s (%s): %v", fp.cores, fp.plane, fp.sync, err)
		}
		name := fmtPlane("flaky-edge", fp.cores, fp.plane, fp.sync)
		if lp.seq.Totals != fed.Totals {
			t.Errorf("%s: counters diverge:\n sequential %+v\n federated  %+v", name, lp.seq.Totals, fed.Totals)
		}
		fedRep, err := FlakyEdgeFederatedReport(fed)
		if err != nil {
			t.Fatal(err)
		}
		if lp.seq.Web.Comparable() != fedRep.Comparable() {
			t.Errorf("%s: reports diverge:\n sequential %+v\n federated  %+v", name, lp.seq.Web, fedRep)
		}
		if !reflect.DeepEqual(lp.seq.PipeDrops, fed.PipeDrops) {
			t.Errorf("%s: per-pipe drops diverge:\n sequential %v\n federated  %v", name, lp.seq.PipeDrops, fed.PipeDrops)
		}
		sameCDF(t, name, lp.seq.Deliveries, sampleOf(fed))
		if fed.Sync.Messages == 0 {
			t.Errorf("%s: no cross-core messages — the comparison is vacuous", name)
		}
	}
}

func fmtPlane(scenario string, cores int, plane string, sm modelnet.SyncMode) string {
	return fmt.Sprintf("%s seq vs fednet-%s-%d/%s", scenario, plane, cores, sm)
}

func TestCFSSeqParDeterminism(t *testing.T) {
	si, sd, sn, ss, sspeed := cfsRun(t, false)
	pi, pd, pn, ps, pspeed := cfsRun(t, true)
	if si != pi || sd != pd || sn != pn {
		t.Errorf("CFS counters diverge: seq (inj %d, del %d, noroute %d) vs par (%d, %d, %d)",
			si, sd, sn, pi, pd, pn)
	}
	if sspeed != pspeed {
		t.Errorf("CFS download speeds diverge: %v vs %v KB/s", sspeed, pspeed)
	}
	if sd == 0 {
		t.Fatal("CFS run delivered nothing")
	}
	sameCDF(t, "cfs", ss, ps)
}
