package experiments

// The scenario table and its one runner. A scenario is declared once, as a
// decl over its spec and report types; from that one value come its
// federation registration (init, below), its sequential, in-process and
// federated execution (Run), and the CLI's example parameters and summary
// line (cmd/modelnet -fedscenario). Nothing about a workload is spelled out
// per execution mode: the mode of a run is whatever its modelnet.Options
// say, which is the determinism contract (seq ≡ inproc ≡ fednet) as code.

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"modelnet"
	"modelnet/internal/dynamics"
	"modelnet/internal/fednet"
	"modelnet/internal/netstack"
	"modelnet/internal/obs"
	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/stats"
	"modelnet/internal/vtime"
)

// Spec is a scenario's parameters: a pure description from which every
// process of every execution mode derives the same topology and the same
// per-VN plan. A spec with a Dynamics() (*dynamics.Spec, error) method rides
// on scripted link dynamics, which Run attaches in every mode.
type Spec interface {
	Topology() *modelnet.Graph
	RunFor() modelnet.Duration
}

// Env is where a scenario installs its workload: the four things
// *modelnet.Emulation (every VN homed) and *fednet.WorkerEnv (one shard's
// VNs homed) both offer.
type Env struct {
	NumVNs  int
	Homed   func(pipes.VN) bool
	NewHost func(pipes.VN) *netstack.Host
	SchedOf func(pipes.VN) *vtime.Scheduler
}

// remote reports whether a VN lives on another core process — never, outside
// a federation. Connections to such a VN span real sockets.
func (e Env) remote(vn pipes.VN) bool { return !e.Homed(vn) }

// decl declares one scenario: everything that differs between workloads,
// typed by its spec S and its application report R.
type decl[S Spec, R any] struct {
	name string
	seed func(S) int64
	// install is S's exported Install (adapted to an Env where benchmark/
	// compiles against a positional signature); the returned closure reports
	// the installed slice's results after the run.
	install func(S, Env) (func() R, error)
	// merge is R's own Merge, folding one process's report into another's;
	// nil for a scenario that measures nothing beyond the emulator's counters.
	merge func(*R, R)
	// example is the parameter set `modelnet -fedscenario` runs, sized by the
	// injection window and the seed; summary renders the merged report as the
	// CLI prints it.
	example func(durationSec float64, seed int64) S
	summary func(R) string
}

type noReport = struct{}

// Scenario is one entry of the table, bound to the parameters Run executes.
type Scenario struct {
	Name string
	// Spec is what Run executes: Example's value, a decoded params frame, or
	// a caller's own. RunFor, when positive, replaces Spec.RunFor().
	Spec   Spec
	RunFor modelnet.Duration
	// Example returns the CLI's parameters for an injection window and seed.
	Example func(durationSec float64, seed int64) Spec
	// Summary renders Result.App as the CLI's summary lines; nil for a
	// scenario without an application report.
	Summary func(report any) string

	decode  func(json.RawMessage) (Spec, error)
	seed    func(Spec) int64
	install func(Spec, Env) (func() any, error)
	merge   func([]fednet.WorkerReport) (any, error)
}

// scenario erases the declaration's types, so the table is one slice.
func (d decl[S, R]) scenario() Scenario {
	sc := Scenario{
		Name:    d.name,
		Example: func(durationSec float64, seed int64) Spec { return d.example(durationSec, seed) },
		decode: func(params json.RawMessage) (Spec, error) {
			var s S
			err := json.Unmarshal(params, &s)
			return s, err
		},
		seed: func(sp Spec) int64 { return d.seed(sp.(S)) },
		install: func(sp Spec, env Env) (func() any, error) {
			report, err := d.install(sp.(S), env)
			if err != nil || report == nil {
				return nil, err
			}
			return func() any { return report() }, nil
		},
	}
	if d.merge != nil {
		sc.merge = func(ws []fednet.WorkerReport) (any, error) { return mergeReports(ws, d.merge) }
		sc.Summary = func(report any) string { return d.summary(report.(R)) }
	}
	return sc
}

// mergeReports unmarshals the per-worker scenario reports of a federated
// run and folds them together with the report type's own Merge.
func mergeReports[R any](workers []fednet.WorkerReport, merge func(*R, R)) (R, error) {
	var out R
	for _, w := range workers {
		if len(w.Scenario) == 0 {
			continue
		}
		var r R
		if err := json.Unmarshal(w.Scenario, &r); err != nil {
			return out, fmt.Errorf("shard %d scenario report: %w", w.Shard, err)
		}
		merge(&out, r)
	}
	return out, nil
}

// CFSFederatedReport merges the per-worker scenario reports of a federated
// cfs-ring run (for callers that drive fednet.Run themselves).
func CFSFederatedReport(rep *fednet.Report) (CFSRingReport, error) {
	return mergeReports(rep.Workers, (*CFSRingReport).Merge)
}

func webSummary(label string) func(WebReplRingReport) string {
	return func(r WebReplRingReport) string {
		return fmt.Sprintf("%-7s: %d requests (%d ok, %d failed), %d bytes served, %d retransmits (%d across core boundaries)\n",
			label, r.Requests, r.OK, r.Failed, r.ServerBytes, r.Retransmits, r.CrossRetransmits)
	}
}

// scenarios is the table: one entry per workload, in the order -fedscenario
// documents them.
var scenarios = []Scenario{
	decl[RingCBRSpec, noReport]{
		name: ScenarioRingCBR,
		seed: func(c RingCBRSpec) int64 { return c.Seed },
		install: func(c RingCBRSpec, e Env) (func() noReport, error) {
			return nil, c.Install(e.NumVNs, e.Homed, e.NewHost, e.SchedOf)
		},
		example: func(durationSec float64, seed int64) RingCBRSpec {
			return RingCBRSpec{
				Routers: 20, VNsPerRouter: 20,
				PacketsPerSec: 200, PacketBytes: 1000,
				DurationSec: durationSec, Seed: seed,
			}
		},
	}.scenario(),
	decl[GnutellaRingSpec, GnutellaRingReport]{
		name:    ScenarioGnutella,
		seed:    func(c GnutellaRingSpec) int64 { return c.Seed },
		install: GnutellaRingSpec.Install,
		merge:   (*GnutellaRingReport).Merge,
		example: func(durationSec float64, seed int64) GnutellaRingSpec {
			return GnutellaRingSpec{
				Routers: 20, VNsPerRouter: 10,
				Degree: 4, TTL: 7,
				WindowSec: durationSec, Seed: seed,
			}
		},
		summary: func(r GnutellaRingReport) string {
			return fmt.Sprintf("overlay: %d reachable from servent 0, %d forwarded, %d duplicates\n",
				r.Reachable, r.Forwarded, r.Duplicates)
		},
	}.scenario(),
	decl[CFSRingSpec, CFSRingReport]{
		name: ScenarioCFSRing,
		seed: func(c CFSRingSpec) int64 { return c.Seed },
		install: func(c CFSRingSpec, e Env) (func() CFSRingReport, error) {
			return c.Install(e.NumVNs, e.Homed, e.NewHost)
		},
		merge: (*CFSRingReport).Merge,
		example: func(durationSec float64, seed int64) CFSRingSpec {
			return CFSRingSpec{
				Routers: 6, VNsPerRouter: 2,
				FileKB: 256, WindowKB: 24,
				Downloaders: []int{0, 7},
				DurationSec: durationSec, Seed: seed,
			}
		},
		summary: func(r CFSRingReport) string {
			var b strings.Builder
			fmt.Fprintf(&b, "cfs    : %d blocks served\n", r.BlocksServed)
			for _, d := range r.Downloads {
				fmt.Fprintf(&b, "  node %2d: %d bytes in %d blocks (%d failed, %d hops) %.1f KB/s done=%v\n",
					d.Node, d.Bytes, d.Blocks, d.Failed, d.Hops, d.SpeedKBps, d.Done)
			}
			return b.String()
		},
	}.scenario(),
	decl[WebReplRingSpec, WebReplRingReport]{
		name:    ScenarioWebReplRing,
		seed:    func(c WebReplRingSpec) int64 { return c.Seed },
		install: WebReplRingSpec.Install,
		merge:   (*WebReplRingReport).Merge,
		example: func(durationSec float64, seed int64) WebReplRingSpec {
			return WebReplRingSpec{
				Routers: 6, VNsPerRouter: 3,
				LossPct:  1.0,
				TraceSec: durationSec * 0.5, DrainSec: durationSec * 0.5,
				MinRate: 30, MaxRate: 60, MedianSize: 8 << 10,
				Seed: seed,
			}
		},
		summary: webSummary("web"),
	}.scenario(),
	decl[FlakyEdgeSpec, WebReplRingReport]{
		name: ScenarioFlakyEdge,
		seed: func(c FlakyEdgeSpec) int64 { return c.Web.Seed },
		// Only the workload is built here: the dynamics reach every mode
		// through Options.Dynamics (a federation ships them in its setup frame).
		install: func(c FlakyEdgeSpec, e Env) (func() WebReplRingReport, error) {
			return c.Web.Install(e)
		},
		merge: (*WebReplRingReport).Merge,
		example: func(durationSec float64, seed int64) FlakyEdgeSpec {
			return FlakyEdgeSpec{
				Web: WebReplRingSpec{
					Routers: 6, VNsPerRouter: 3,
					LossPct:  0.5,
					TraceSec: durationSec * 0.4, DrainSec: durationSec * 0.6,
					MinRate: 30, MaxRate: 60, MedianSize: 8 << 10,
					Seed: seed,
				},
				Trace:    "wifi",
				FailLink: 2,
				FailSec:  durationSec * 0.2, RecoverSec: durationSec * 0.5,
				RerouteDelaySec: 0.25,
			}
		},
		summary: webSummary("flaky"),
	}.scenario(),
	decl[TStubCBRSpec, noReport]{
		name: ScenarioTStubCBR,
		seed: func(c TStubCBRSpec) int64 { return c.Seed },
		install: func(c TStubCBRSpec, e Env) (func() noReport, error) {
			return nil, c.Install(e.NumVNs, e.Homed, e.NewHost, e.SchedOf)
		},
		example: func(durationSec float64, seed int64) TStubCBRSpec {
			return TStubCBRSpec{
				TransitDomains: 2, TransitPerDomain: 4,
				StubsPerTransit: 4, RoutersPerStub: 3, ClientsPerStub: 16,
				Servers: 16, Flows: 64,
				PacketsPerSec: 100, PacketBytes: 512,
				DurationSec: durationSec, Seed: seed,
			}
		},
	}.scenario(),
	decl[LiveRingSpec, LiveRingReport]{
		name:    ScenarioLiveRing,
		seed:    func(c LiveRingSpec) int64 { return c.Seed },
		install: LiveRingSpec.Install,
		merge:   (*LiveRingReport).Merge,
		example: func(durationSec float64, seed int64) LiveRingSpec {
			return LiveRingSpec{
				Routers: 6, VNsPerRouter: 2,
				EchoVN: 6, EchoPort: 7,
				DurationSec: durationSec, Seed: seed,
			}
		},
		summary: func(r LiveRingReport) string {
			return fmt.Sprintf("live   : %d pings echoed in-emulation\n", r.Echoed)
		},
	}.scenario(),
}

// Every process of a federation resolves the coordinator's scenario name in
// fednet's registry, so the table registers itself wherever this package is
// linked in.
func init() {
	for _, sc := range scenarios {
		sc := sc
		fednet.Register(sc.Name, fednet.Scenario{
			Build: func(params json.RawMessage) (*modelnet.Graph, error) {
				spec, err := sc.decode(params)
				if err != nil {
					return nil, err
				}
				return spec.Topology(), nil
			},
			Install: func(env *fednet.WorkerEnv, params json.RawMessage) (func() json.RawMessage, error) {
				spec, err := sc.decode(params)
				if err != nil {
					return nil, err
				}
				report, err := sc.install(spec, Env{
					NumVNs: env.NumVNs(), Homed: env.Homed, NewHost: env.NewHost,
					SchedOf: func(pipes.VN) *vtime.Scheduler { return env.Sched },
				})
				if err != nil || report == nil {
					return nil, err
				}
				return func() json.RawMessage {
					b, _ := json.Marshal(report()) // plain counters: cannot fail
					return b
				}, nil
			},
		})
	}
}

// Lookup returns the table's entry for a scenario name, its Spec still unset.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Result is a run's outcome, whatever mode produced it. Every field but WallMS,
// Sync and Fed is covered by the determinism contract: under an event-exact
// profile it is identical across the sequential, in-process parallel and
// federated runs of one Scenario.
type Result struct {
	Totals modelnet.Totals
	// Deliveries holds every delivery's virtual time in seconds (a federated
	// run fills it only with Federate.CollectDeliveries set).
	Deliveries *stats.Sample
	PipeDrops  []uint64          // per-pipe drop vector, indexed by pipe ID
	Drops      []uint64          // drop-taxonomy vector, indexed by pipes.DropReason
	WallMS     float64           // wall clock of the Run phase alone
	Sync       parcore.SyncStats // barrier activity; zero for a sequential run
	Trace      *obs.Trace        // with Options.Trace
	// App is the scenario's merged application report (GnutellaRingReport,
	// CFSRingReport, WebReplRingReport, LiveRingReport); nil when the
	// scenario has none.
	App any
	// Fed is the federation's full report when the run was federated.
	Fed *fednet.Report
}

// Run executes sc.Spec in the mode opts describe: sequentially, on the
// in-process parallel runtime (Parallel with Cores > 1), or as a Cores-process
// federation (Federate != nil; a spawning caller's main or TestMain must call
// fednet.MaybeRunWorker). The seed and any link dynamics come from the spec;
// every other option means what it means to modelnet.Run and
// modelnet.Federate.
func Run(sc Scenario, opts modelnet.Options) (*Result, error) {
	spec := sc.Spec
	runFor := sc.RunFor
	if runFor <= 0 {
		runFor = spec.RunFor()
	}
	opts.Seed = sc.seed(spec)
	if d, ok := spec.(interface {
		Dynamics() (*dynamics.Spec, error)
	}); ok {
		dyn, err := d.Dynamics()
		if err != nil {
			return nil, err
		}
		opts.Dynamics = dyn
	}
	res := &Result{Deliveries: &stats.Sample{}}
	if opts.Federate != nil {
		rep, err := modelnet.Federate(sc.Name, spec, runFor, opts)
		if err != nil {
			return nil, err
		}
		res.Totals, res.PipeDrops, res.Drops = rep.Totals, rep.PipeDrops, rep.DropsByReason
		res.Deliveries.AddAll(rep.Deliveries)
		res.WallMS, res.Sync = rep.WallMS, rep.Sync
		res.Trace, res.Fed = rep.Trace, rep
		if sc.merge != nil {
			if res.App, err = sc.merge(rep.Workers); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	em, err := modelnet.Run(spec.Topology(), opts)
	if err != nil {
		return nil, err
	}
	// A delivery fires on its destination's home shard, so one slice per
	// shard needs no lock (a sequential run has one shard); CDFAt sorts, so
	// the merge order below is irrelevant.
	home := func(pipes.VN) int { return 0 }
	delivered := make([][]float64, 1)
	if em.Par != nil {
		home, delivered = em.Par.HomeOf, make([][]float64, em.Par.Cores())
	}
	em.OnDeliver(func(pkt *pipes.Packet, at modelnet.Time) {
		h := home(pkt.Dst)
		delivered[h] = append(delivered[h], at.Seconds())
	})
	report, err := sc.install(spec, Env{
		NumVNs: em.NumVNs(), Homed: func(pipes.VN) bool { return true },
		NewHost: em.NewHost, SchedOf: em.SchedulerOf,
	})
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	em.RunFor(runFor)
	res.WallMS = float64(time.Since(begin).Microseconds()) / 1000
	res.Totals, res.PipeDrops, res.Drops = em.Totals(), em.PipeDrops(), em.DropsByReason()
	for _, xs := range delivered {
		res.Deliveries.AddAll(xs)
	}
	res.Trace = em.TraceData()
	if report != nil {
		res.App = report()
	}
	if em.Par != nil {
		res.Sync = em.Par.Stats()
	}
	return res, nil
}
