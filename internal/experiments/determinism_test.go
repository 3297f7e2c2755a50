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
	"modelnet/internal/assign"
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

// flakySmallSpec is the link-dynamics workload of the cross-mode, trace and
// crash suites, its failed link chosen to cross the cores-way partition.
func flakySmallSpec(t *testing.T, cores int) FlakyEdgeSpec {
	t.Helper()
	spec := FlakyEdgeSpec{
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
	fail, err := cutFailLink(spec, cores)
	if err != nil {
		t.Fatal(err)
	}
	spec.FailLink = fail
	return spec
}

// cutFailLink picks a ring link that crosses the k-core partition the
// runtimes would compute for this spec's topology and seed: a link whose
// owning cluster differs from its destination router's, so its failure (and
// the packets blackholed at it) genuinely involves the shard cut. With one
// core there is no cut; the first ring link stands in.
func cutFailLink(c FlakyEdgeSpec, k int) (int, error) {
	g := c.Topology()
	if k < 2 {
		return 0, nil
	}
	asn, err := assign.KClusters(g, k, c.Web.Seed)
	if err != nil {
		return 0, err
	}
	// A node's cluster is the owner of any link sourced at it (KClusters
	// owns each directed link by its source node's cluster).
	nodeOwner := make([]int, g.NumNodes())
	for i := range nodeOwner {
		nodeOwner[i] = -1
	}
	for _, l := range g.Links {
		if nodeOwner[l.Src] == -1 {
			nodeOwner[l.Src] = asn.Owner[l.ID]
		}
	}
	for _, l := range g.Links[:c.ringLinks()] {
		if asn.Owner[l.ID] != nodeOwner[l.Dst] {
			return int(l.ID), nil
		}
	}
	return 0, fmt.Errorf("flaky-edge: no ring link crosses the %d-core partition", k)
}

func cfsSmallSpec() CFSRingSpec {
	return CFSRingSpec{
		Routers:      4,
		VNsPerRouter: 3,
		FileKB:       64,
		WindowKB:     24,
		Downloaders:  []int{0, 7},
		DurationSec:  5,
		Seed:         21,
	}
}

// The contract holds under event-exact profiles, so every run of these
// suites uses the ideal one.
var ideal = modelnet.IdealProfile()

// A mode point is a modelnet.Options value: the three constructors below
// are the whole vocabulary of the cross-mode suites.
func seqMode() modelnet.Options { return modelnet.Options{Profile: &ideal} }

func inprocMode(cores int) modelnet.Options {
	return modelnet.Options{Profile: &ideal, Cores: cores, Parallel: true}
}

// fedMode is a cores-process federation over loopback, the workers spawned
// from this test binary (TestMain).
func fedMode(cores int, plane string) modelnet.Options {
	return modelnet.Options{Profile: &ideal, Cores: cores,
		Federate: &modelnet.FederateOptions{DataPlane: plane, Spawn: true, CollectDeliveries: true}}
}

func modeName(o modelnet.Options) string {
	switch {
	case o.Federate != nil:
		return fmt.Sprintf("fednet-%s-%d", o.Federate.DataPlane, o.Cores)
	case o.Parallel:
		return fmt.Sprintf("inproc-%d", o.Cores)
	}
	return "seq"
}

// scenarioOf binds the table's entry for name to spec.
func scenarioOf(t *testing.T, name string, spec Spec) Scenario {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q is not in the table", name)
	}
	sc.Spec = spec
	return sc
}

func run(t *testing.T, sc Scenario, mode modelnet.Options) *Result {
	t.Helper()
	res, err := Run(sc, mode)
	if err != nil {
		t.Fatalf("%s %s: %v", sc.Name, modeName(mode), err)
	}
	return res
}

// comparableApp strips an application report's deployment-dependent fields,
// leaving what every execution mode must agree on byte for byte.
func comparableApp(app any) any {
	if w, ok := app.(WebReplRingReport); ok {
		w.CrossRetransmits = 0
		return w
	}
	return app
}

// sameRun is the cross-mode oracle: everything a Result holds that the
// determinism contract covers must match the reference run's.
func sameRun(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if want.Totals != got.Totals {
		t.Errorf("%s: counters diverge:\n want %+v\n got  %+v", name, want.Totals, got.Totals)
	}
	if w, g := comparableApp(want.App), comparableApp(got.App); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: application reports diverge:\n want %+v\n got  %+v", name, w, g)
	}
	if !equalU64(want.PipeDrops, got.PipeDrops) {
		t.Errorf("%s: per-pipe drops diverge:\n want %v\n got  %v", name, want.PipeDrops, got.PipeDrops)
	}
	if !equalU64(want.Drops, got.Drops) {
		t.Errorf("%s: drop taxonomy diverges:\n want %v\n got  %v", name, want.Drops, got.Drops)
	}
	if got.Fed != nil && got.Sync.Messages == 0 {
		t.Errorf("%s: no cross-core messages — the comparison is vacuous", name)
	}
	sameCDF(t, name, want.Deliveries, got.Deliveries)
}

// fedPlanes are the (workers, data plane) points the federated suite covers:
// both planes at each of the given worker-process counts. Window boundaries
// differ with the shard count; counters, reports, and delivery CDFs must not.
func fedPlanes(workers ...int) []modelnet.Options {
	var modes []modelnet.Options
	for _, k := range workers {
		for _, plane := range []string{fednet.DataUDP, fednet.DataTCP} {
			modes = append(modes, fedMode(k, plane))
		}
	}
	return modes
}

// fullModes is the sequential reference, the in-process runtime, and every
// fedPlanes point at the given worker counts.
func fullModes(inprocCores int, workers ...int) []modelnet.Options {
	return append([]modelnet.Options{seqMode(), inprocMode(inprocCores)}, fedPlanes(workers...)...)
}

// crossModeCase is one row of the cross-mode table: a scenario, the mode
// points it runs at (modes[0] is the sequential reference every other run
// must equal under sameRun), and the liveness check that keeps the
// comparison from passing on a workload that did nothing.
type crossModeCase struct {
	sc    Scenario
	modes []modelnet.Options
	sane  func(t *testing.T, runs []*Result)
}

func crossModeCases(t *testing.T) []crossModeCase {
	delivered := func(t *testing.T, runs []*Result) {
		if runs[0].Totals.Delivered == 0 {
			t.Error("the run delivered nothing")
		}
	}
	gnutella := GnutellaRingSpec{
		Routers:      10,
		VNsPerRouter: 12,
		Degree:       4,
		TTL:          6,
		WindowSec:    8,
		Seed:         15,
	}
	cfs := cfsSmallSpec()
	web := WebReplRingSpec{
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
	tstub := tstubSmallSpec()
	// The tstub local baseline cannot hold an O(n²) matrix at the sizes the
	// scenario is for; it routes through the demand-built per-target cache,
	// which the shard-local route property test proves path-identical.
	tstubModes := fullModes(4)
	for i := range tstubModes {
		tstubModes[i].RouteCache = tstub.Servers + 8
	}
	tstubModes = append(tstubModes,
		fedMode(2, fednet.DataUDP),
		fedMode(3, fednet.DataTCP),
		fedMode(2, fednet.DataTCP))

	cases := []crossModeCase{
		{sc: scenarioOf(t, ScenarioRingCBR, fednetRingSpec()), modes: fullModes(4, 2, 3, 4), sane: delivered},
		{
			sc:    scenarioOf(t, ScenarioGnutella, gnutella),
			modes: []modelnet.Options{seqMode(), inprocMode(4), fedMode(2, fednet.DataTCP)},
			sane: func(t *testing.T, runs []*Result) {
				if r := runs[0].App.(GnutellaRingReport); r.Reachable < gnutella.Servents()/2 {
					t.Errorf("flood barely spread: %d/%d reachable", r.Reachable, gnutella.Servents())
				}
			},
		},
		// Chord lookups and block fetches ride RPC frames whose bodies are
		// nested payloads, so every cross-core packet exercises the recursive
		// codec layer.
		{
			sc: scenarioOf(t, ScenarioCFSRing, cfs), modes: fullModes(4, 2, 3, 4),
			sane: func(t *testing.T, runs []*Result) {
				r := runs[0].App.(CFSRingReport)
				if len(r.Downloads) != len(cfs.Downloaders) {
					t.Errorf("expected %d downloads, got %+v", len(cfs.Downloaders), r.Downloads)
				}
				for _, d := range r.Downloads {
					if !d.Done || d.Failed > 0 || d.Bytes != cfs.FileKB<<10 {
						t.Errorf("download from node %d incomplete: %+v", d.Node, d)
					}
				}
			},
		},
		// Real netstack TCP connections — handshakes, message markers,
		// retransmissions, RTO state — cross core-process boundaries as Segment
		// payloads, under link loss that guarantees retransmitted segments span
		// the cut.
		{
			sc: scenarioOf(t, ScenarioWebReplRing, web), modes: fullModes(4, 2, 3, 4),
			sane: func(t *testing.T, runs []*Result) {
				r := runs[0].App.(WebReplRingReport)
				if r.OK == 0 {
					t.Errorf("no requests completed: %+v", r)
				}
				if r.Retransmits == 0 {
					t.Errorf("lossy ring produced no TCP retransmissions — the workload is not exercising RTO state: %+v", r)
				}
				// The acceptance probe: TCP retransmission state survived a core
				// boundary (a retransmitted segment was re-sent on a connection
				// whose peer lives in another worker process).
				crossed := 0
				for _, run := range runs {
					if run.Fed != nil && run.App.(WebReplRingReport).CrossRetransmits > 0 {
						crossed++
					}
				}
				if crossed == 0 {
					t.Error("no federated run retransmitted across a core boundary — the TCP-over-the-cut path went unexercised")
				}
			},
		},
		{
			sc: scenarioOf(t, ScenarioTStubCBR, tstub), modes: tstubModes,
			sane: func(t *testing.T, runs []*Result) {
				delivered(t, runs)
				if n := runs[0].Totals.NoRoute; n > 0 {
					t.Errorf("tstub run had %d unroutable packets", n)
				}
				for i, run := range runs {
					if run.Fed == nil {
						continue
					}
					for _, w := range run.Fed.Workers {
						if w.RouteRPCs == 0 {
							t.Errorf("%s: shard %d paged no route summaries — the demand path went unexercised",
								modeName(tstubModes[i]), w.Shard)
						}
					}
				}
			},
		},
	}
	// Link dynamics: every ring link replays the bundled wifi contention
	// trace (so pipe parameters are functions of virtual time and shard
	// lookahead must come from the profile's latency floor) while a cut ring
	// link fails mid-run, blackholes traffic until routes reconverge, and
	// later recovers. The failed link crosses the k-core partition, so the
	// spec differs per worker count; the sequential and in-process runs use
	// the same spec as the federation they are compared against.
	for _, k := range []int{2, 3, 4} {
		spec := flakySmallSpec(t, k)
		cases = append(cases, crossModeCase{
			sc: scenarioOf(t, ScenarioFlakyEdge, spec), modes: fullModes(k, k),
			sane: func(t *testing.T, runs []*Result) {
				if r := runs[0].App.(WebReplRingReport); r.OK == 0 {
					t.Errorf("no requests completed: %+v", r)
				}
				if runs[0].PipeDrops[spec.FailLink] == 0 {
					t.Errorf("failed link %d dropped nothing — the blackhole went unexercised", spec.FailLink)
				}
			},
		})
	}
	return cases
}

// crossMode runs the named scenario's rows of the table: every mode point
// against the sequential reference, then the row's liveness check.
func crossMode(t *testing.T, scenario string) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	for _, c := range crossModeCases(t) {
		if c.sc.Name != scenario {
			continue
		}
		runs := make([]*Result, len(c.modes))
		for i, mode := range c.modes {
			runs[i] = run(t, c.sc, mode)
			if i > 0 {
				sameRun(t, scenario+" seq vs "+modeName(mode), runs[0], runs[i])
			}
		}
		c.sane(t, runs)
	}
}

// One top-level name per scenario keeps `go test -run` selection and the
// per-scenario timing in CI; the body is the table.
func TestRingFednetDeterminism(t *testing.T)        { crossMode(t, ScenarioRingCBR) }
func TestGnutellaFednetDeterminism(t *testing.T)    { crossMode(t, ScenarioGnutella) }
func TestCFSRingFednetDeterminism(t *testing.T)     { crossMode(t, ScenarioCFSRing) }
func TestWebReplRingFednetDeterminism(t *testing.T) { crossMode(t, ScenarioWebReplRing) }
func TestFlakyEdgeFednetDeterminism(t *testing.T)   { crossMode(t, ScenarioFlakyEdge) }
func TestTStubCBRFednetDeterminism(t *testing.T)    { crossMode(t, ScenarioTStubCBR) }

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
	sc := scenarioOf(t, ScenarioRingCBR, spec)
	seq := run(t, sc, seqMode())
	paced := fedMode(2, fednet.DataUDP)
	paced.Federate.RealTime = true
	fed := run(t, sc, paced)
	sameRun(t, "paced ring", seq, fed)
	if seq.Totals.Delivered == 0 {
		t.Error("vacuous comparison: nothing delivered")
	}
	if want := spec.RunFor().Seconds() * 1000; fed.WallMS < want {
		t.Errorf("run took %.0f ms of wall clock for %.0f ms of virtual time: it was not paced", fed.WallMS, want)
	}
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
