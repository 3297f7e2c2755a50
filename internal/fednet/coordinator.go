package fednet

// The coordinator side of a federation: build and partition the topology,
// distribute it, then run parcore.Drive over a Transport whose shards
// answer over TCP. The coordinator owns no shard — it is the paper's
// deploy-and-synchronize machinery, not an emulation participant.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/distill"
	"modelnet/internal/dynamics"
	"modelnet/internal/edge"
	"modelnet/internal/emucore"
	"modelnet/internal/fednet/wire"
	"modelnet/internal/obs"
	"modelnet/internal/parcore"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// rerouteHorizon is the virtual-time span over which the reroute epoch
// schedule is enumerated; coordinator and workers must use the same one so
// their epoch numbering agrees. Runs to quiescence enumerate everything.
func rerouteHorizon(runFor vtime.Duration) vtime.Duration {
	if runFor <= 0 {
		return vtime.Duration(vtime.Forever)
	}
	return runFor
}

// Options configure a federated run.
type Options struct {
	// Scenario names a registered Scenario; Params is marshaled to JSON
	// and handed to its Build and Install hooks.
	Scenario string
	Params   any

	// Cores is the number of worker processes (= emulated core routers);
	// at least 2.
	Cores int
	// Seed determinizes assignment, loss, and scenario randomness,
	// exactly as modelnet.Options.Seed does.
	Seed int64
	// Profile models the core hardware; nil = emucore.DefaultProfile().
	// Use an event-exact profile (IdealProfile) for the cross-mode
	// determinism guarantee and eager windows.
	Profile *emucore.Profile
	// Distill selects the distillation mode (zero value = hop-by-hop).
	Distill distill.Spec
	// EdgeNodes mirrors modelnet.Options.
	EdgeNodes int

	// RunFor is the virtual time to emulate. Zero or negative runs to
	// global quiescence.
	RunFor vtime.Duration

	// Dynamics, when non-nil, is the link-dynamics spec: the coordinator
	// validates it against the distilled topology and ships it bit-exact
	// to every worker, which replays it against its own pipe set exactly
	// as the sequential and in-process modes do.
	Dynamics *dynamics.Spec

	// Listen is the control-plane address (default "127.0.0.1:0"; use
	// ":port" to accept workers from other machines).
	Listen string
	// DataPlane selects how workers exchange tunnel messages: DataUDP
	// (default; the paper's IP-in-UDP tunnels) or DataTCP (lossless
	// fallback for links that may drop datagrams).
	DataPlane string
	// MaxDatagram bounds one UDP data-plane frame in bytes; each round's
	// messages per peer coalesce into batch frames chunked to fit. 0 means
	// DefaultMaxDatagram; a single message larger than the bound fails the
	// run loudly (the kernel would otherwise truncate or drop the datagram
	// silently).
	MaxDatagram int
	// Spawn, when true, re-executes the current binary Cores times as
	// local workers (MaybeRunWorker must run early in its main). When
	// false the coordinator waits for externally started `modelnet core
	// -join` workers.
	Spawn bool
	// CollectDeliveries has every worker record each delivery's virtual
	// time; the merged sample lands in Report.Deliveries (the cross-mode
	// determinism probe).
	CollectDeliveries bool

	// Edge, when non-nil, is the live edge gateway lease distributed to
	// every worker: real UDP sockets at the emulation's boundary, mapped
	// onto ingress VNs (internal/edge). Each worker instantiates only the
	// mappings homed on its shard; the bound real addresses are reported
	// through OnLive. Live runs usually also want RealTime.
	Edge *edge.GatewayConfig
	// RealTime slaves window release to the wall clock (parcore.Pacing):
	// virtual nanoseconds map 1:1 onto wall nanoseconds, the paper's
	// 10 kHz-timer role. Required for live edge traffic to experience
	// emulated delays in real time; requires a finite RunFor.
	RealTime bool
	// Pace is the real-time pacing quantum (0 = parcore.DefaultPaceQuantum).
	Pace vtime.Duration
	// OnLive, when non-nil, runs once every worker is set up — before the
	// clock starts — with each shard's gateway address ("" for shards
	// without one). This is how a live client learns where to send.
	OnLive func(gatewayAddrs []string)
	// Timeout bounds every blocking protocol step (default
	// DefaultTimeout).
	Timeout time.Duration
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)

	// Recover arms checkpoint/restart fault tolerance: every worker keeps
	// its send log, the coordinator logs each barrier round and collects
	// per-shard state digests every CkptEvery step rounds, and a worker
	// whose control connection dies mid-run is respawned and replayed back
	// to the crash point instead of failing the run. Requires Spawn (the
	// coordinator owns the respawn) and a closed, unpaced run: live ingress
	// and pacing are wall-clock facts the round log does not hold.
	Recover bool
	// CkptEvery is the checkpoint period in step rounds (default
	// DefaultCkptEvery). Checkpoints are determinism anchors: a recovering
	// replay's digest is byte-compared against the stored blob.
	CkptEvery int
	// CkptDir, when non-empty, persists each shard's latest checkpoint
	// blob under it (shard-N.ckpt); empty keeps blobs in memory only.
	CkptDir string
	// MaxRecoveries bounds worker respawns per run (default
	// DefaultMaxRecoveries); the run fails once exhausted.
	MaxRecoveries int
	// FailSpec, when non-nil, plants a fault: worker Shard dies at step
	// round Round (the crash-sweep harness). Same restrictions as Recover;
	// sigkill mode additionally requires Spawn.
	FailSpec *FailSpec

	// Trace has every worker record a virtual-time packet trace and stream
	// it back over wire.TTrace; the merged result lands in Report.Trace.
	Trace bool
	// MetricsListen, when non-empty, binds a live metrics HTTP endpoint
	// (obs.Metrics: Prometheus text at /metrics, pprof under /debug/pprof/)
	// on the coordinator at the given host:port, and has every worker bind
	// one on loopback; worker addresses land in Report.WorkerMetricsAddrs.
	MetricsListen string
}

func (o *Options) defaults() error {
	if o.Scenario == "" {
		return fmt.Errorf("fednet: Options.Scenario is required")
	}
	if o.Cores < 2 {
		return fmt.Errorf("fednet: federation needs at least 2 cores, got %d", o.Cores)
	}
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.DataPlane == "" {
		o.DataPlane = DataUDP
	}
	if o.DataPlane != DataUDP && o.DataPlane != DataTCP {
		return fmt.Errorf("fednet: unknown data plane %q", o.DataPlane)
	}
	if o.MaxDatagram == 0 {
		o.MaxDatagram = DefaultMaxDatagram
	}
	if o.MaxDatagram < 512 || o.MaxDatagram > 65000 {
		return fmt.Errorf("fednet: MaxDatagram %d outside [512, 65000]", o.MaxDatagram)
	}
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.RealTime && o.RunFor <= 0 {
		return fmt.Errorf("fednet: RealTime pacing needs a finite RunFor (a paced run's only exit is its deadline)")
	}
	if o.Edge != nil && len(o.Edge.Maps) == 0 {
		return fmt.Errorf("fednet: Edge gateway lease has no mappings")
	}
	if (o.Recover || o.FailSpec != nil) && (o.Edge != nil || o.RealTime) {
		return fmt.Errorf("fednet: Recover/FailSpec cannot replay a live or paced run: when real packets arrive and when windows release are wall-clock facts, not in the round log, so a respawned worker could not be brought back byte-identical")
	}
	if o.Recover {
		if !o.Spawn {
			return fmt.Errorf("fednet: Recover requires Spawn (the coordinator respawns dead workers)")
		}
		if o.CkptEvery == 0 {
			o.CkptEvery = DefaultCkptEvery
		}
		if o.CkptEvery < 0 {
			return fmt.Errorf("fednet: CkptEvery %d is not a period", o.CkptEvery)
		}
		if o.MaxRecoveries == 0 {
			o.MaxRecoveries = DefaultMaxRecoveries
		}
	}
	if fs := o.FailSpec; fs != nil {
		if fs.Shard < 0 || fs.Shard >= o.Cores || fs.Round < 1 {
			return fmt.Errorf("fednet: FailSpec kills shard %d of %d at round %d", fs.Shard, o.Cores, fs.Round)
		}
		switch fs.Mode {
		case "", FailExit:
		case FailSigkill:
			if !o.Spawn {
				return fmt.Errorf("fednet: sigkill fault injection needs Spawn (the coordinator signals its own children)")
			}
		default:
			return fmt.Errorf("fednet: unknown FailSpec mode %q", fs.Mode)
		}
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return nil
}

// Report is a federated run's aggregated outcome.
type Report struct {
	Cores     int
	DataPlane string

	// Totals and Accuracy merge every worker's counters, comparably to
	// Emulation.Totals / AccuracyStats in the other modes.
	Totals   emucore.Totals
	Accuracy emucore.Accuracy
	// Sync counts barrier activity; Messages is the number of cross-core
	// tunnel messages that crossed real sockets.
	Sync parcore.SyncStats
	// Frames and BytesOnWire sum the workers' data-plane costs: frames
	// written (= syscalls on the UDP plane) and bytes with framing. Batching
	// keeps Frames an order of magnitude under Sync.Messages.
	Frames      uint64
	BytesOnWire uint64
	// Lookahead and Cut describe the partition the run synchronized under.
	Lookahead vtime.Duration
	Cut       assign.CutStats
	// WallMS is the coordinator-measured wall-clock time of the Run
	// phase (excluding topology build and worker setup).
	WallMS float64
	// Recoveries counts mid-run worker respawns (Options.Recover);
	// RecoveryWallNs is their total wall-clock cost, replay included.
	Recoveries     int
	RecoveryWallNs int64
	// GatewayAddrs are the per-shard live gateway addresses ("" for
	// shards without one) and Edge the merged gateway counters, when the
	// run carried a gateway lease.
	GatewayAddrs []string
	Edge         edge.GatewayStats
	// Deliveries merges the per-worker delivery-time samples (seconds),
	// when CollectDeliveries was set. Order is by shard, then by each
	// shard's delivery order; sort before comparing across modes.
	Deliveries []float64
	// PipeDrops sums the workers' per-pipe drop counters elementwise,
	// indexed by pipe ID — comparable across execution modes (each mode
	// materializes every pipe, so the vector shape is mode-independent).
	PipeDrops []uint64
	// DropsByReason sums the workers' unified drop-taxonomy vectors
	// (indexed by pipes.DropReason), gateway rejections included.
	DropsByReason []uint64
	// Trace is the merged packet trace, when Options.Trace was set.
	Trace *obs.Trace
	// MetricsAddr and WorkerMetricsAddrs are the bound metrics endpoints,
	// when Options.MetricsListen was set.
	MetricsAddr        string
	WorkerMetricsAddrs []string
	// Workers holds each worker's full report, by shard.
	Workers []WorkerReport
}

// RunProfile flattens the report's synchronization profile into the
// -profile-out artifact shape.
func (r *Report) RunProfile() obs.RunProfile {
	p := obs.RunProfile{
		Mode:           "fednet",
		Cores:          r.Cores,
		WallMS:         r.WallMS,
		Windows:        r.Sync.Windows,
		SerialRounds:   r.Sync.SerialRounds,
		Messages:       r.Sync.Messages,
		GrantMinMS:     r.Sync.GrantMin().Seconds() * 1000,
		GrantMeanMS:    r.Sync.GrantMean().Seconds() * 1000,
		GrantMaxMS:     r.Sync.GrantMax().Seconds() * 1000,
		Drive:          r.Sync.Profile,
		Recoveries:     r.Recoveries,
		RecoveryWallMS: float64(r.RecoveryWallNs) / 1e6,
	}
	for _, w := range r.Workers {
		p.Shards = append(p.Shards, w.Profile)
	}
	return p
}

// Run executes a federated emulation end to end and aggregates the worker
// reports. See Options for the knobs.
func Run(opts Options) (*Report, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	scen, err := lookupScenario(opts.Scenario)
	if err != nil {
		return nil, err
	}
	var params json.RawMessage
	if opts.Params != nil {
		params, err = json.Marshal(opts.Params)
		if err != nil {
			return nil, fmt.Errorf("fednet: scenario params: %w", err)
		}
	}

	// CREATE / DISTILL / ASSIGN on the coordinator; workers receive the
	// results rather than re-deriving them.
	target, err := scen.Build(params)
	if err != nil {
		return nil, fmt.Errorf("fednet: scenario %q build: %w", opts.Scenario, err)
	}
	if err := target.Validate(); err != nil {
		return nil, fmt.Errorf("fednet: create: %w", err)
	}
	dist, err := distill.Distill(target, opts.Distill)
	if err != nil {
		return nil, fmt.Errorf("fednet: distill: %w", err)
	}
	asn, err := assign.KClusters(dist.Graph, opts.Cores, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("fednet: assign: %w", err)
	}
	prof := emucore.DefaultProfile()
	if opts.Profile != nil {
		prof = *opts.Profile
	}

	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("fednet: listen %s: %w", opts.Listen, err)
	}
	defer ln.Close()
	opts.Log("fednet: coordinating %d cores on %s (%s data plane, scenario %q)",
		opts.Cores, ln.Addr(), opts.DataPlane, opts.Scenario)

	var spawned []*spawnedWorker
	fed := 0
	if opts.Spawn {
		fed = int(spawnedFederations.Add(1))
		spawned, err = SpawnWorkers(opts.Cores, ln.Addr().String(), fed)
		if err != nil {
			return nil, err
		}
	}
	defer stopWorkers(spawned)

	conns, hellos, err := acceptWorkers(ln, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	// Distribute: shard i is the i-th worker to join.
	addrs := make([]string, opts.Cores)
	for i, h := range hellos {
		if opts.DataPlane == DataUDP {
			addrs[i] = h.UDPAddr
		} else {
			addrs[i] = h.TCPAddr
		}
	}
	// Shard indices follow join order, not launch order: permute the spawned
	// slice (in place — deferred cleanup shares it) so spawned[i] is shard
	// i's process, which is what fault injection and recovery must target.
	if len(spawned) > 0 {
		byPid := make(map[int]*spawnedWorker, len(spawned))
		for _, w := range spawned {
			byPid[w.cmd.Process.Pid] = w
		}
		for i, h := range hellos {
			w, ok := byPid[h.Pid]
			if !ok {
				return nil, fmt.Errorf("fednet: shard %d joined with unknown pid %d", i, h.Pid)
			}
			spawned[i] = w
		}
	}
	if err := opts.Dynamics.Validate(dist.Graph.NumLinks()); err != nil {
		return nil, fmt.Errorf("fednet: %w", err)
	}
	dynBin := dynamics.Encode(opts.Dynamics)
	// Each worker receives only its shard view (owned links + cut frontier)
	// and the VN world map, so per-worker setup and memory scale with the
	// shard, not the world; a gateway worker pages its ingress flows' routes
	// like any other source. The coordinator's own binding exists for VN
	// numbering and the sync plan, never bulk routes (LazyRoutes), and the
	// reaction-chain matrix Drive prices grants and in-flight messages with
	// comes from the same plan computation every worker runs on its view.
	pod := bind.NewPOD(asn.Owner, asn.Cores)
	bnd, err := bind.Bind(dist.Graph, bind.Options{
		EdgeNodes:  opts.EdgeNodes,
		Cores:      asn.Cores,
		LazyRoutes: true,
	})
	if err != nil {
		return nil, fmt.Errorf("fednet: bind: %w", err)
	}
	homes := parcore.Homes(dist.Graph, bnd, pod, opts.Cores)
	chain := parcore.ChainMatrix(parcore.ComputeSyncPlan(dist.Graph, bnd, pod, homes, opts.Cores, opts.Dynamics.LatencyFloorFunc()))
	// cfgFor closes over the mutable addrs slice: a respawned worker's
	// regenerated setup carries the fleet's *current* endpoints (DataAddrs
	// only feed openDataPlane, never the deterministic emulation state, so a
	// replayed setup differing there is sound).
	cfgFor := func(i int) ([]byte, error) {
		return json.Marshal(setup{
			Shard: i, Cores: opts.Cores, Seed: opts.Seed, Profile: prof,
			DataPlane: opts.DataPlane, DataAddrs: addrs, MaxDatagram: opts.MaxDatagram,
			EdgeNodes: opts.EdgeNodes,
			Scenario:  opts.Scenario, Params: params, CollectDeliveries: opts.CollectDeliveries,
			Edge: opts.Edge, Trace: opts.Trace, Metrics: opts.MetricsListen != "",
			RunForNs: int64(opts.RunFor), Recoverable: opts.Recover,
		})
	}
	views, err := bind.BuildShardViews(dist.Graph, asn.Owner, asn.NodeOwner, asn.Cores)
	if err != nil {
		return nil, fmt.Errorf("fednet: shard views: %w", err)
	}
	downSets, err := dynamics.EnumerateReroutes(opts.Dynamics, dist.Graph.NumLinks(), rerouteHorizon(opts.RunFor))
	if err != nil {
		return nil, fmt.Errorf("fednet: %w", err)
	}
	oracle := bind.NewSummaryOracle(dist.Graph, func(epoch int32) ([]topology.LinkID, error) {
		if int(epoch) >= len(downSets) {
			return nil, fmt.Errorf("fednet: reroute epoch %d outside the enumerated schedule (%d epochs)", epoch, len(downSets))
		}
		return downSets[epoch], nil
	}, 0, 0)
	world := wire.World{VNHome: make([]int32, bnd.NumVNs()), Homes: make([]int32, bnd.NumVNs())}
	for v, n := range bnd.VNHome {
		world.VNHome[v] = int32(n)
		world.Homes[v] = int32(homes[v])
	}
	worldBin := wire.EncodeWorld(world)
	summaries := make([][]topology.NodeID, opts.Cores)
	viewBins := make([][]byte, opts.Cores)
	for i := range views {
		viewBins[i] = wire.EncodeShardView(views[i])
		summaries[i] = views[i].Summary
	}
	// sendSetup distributes one shard's setup over its control conn; Run
	// uses it for the initial boot, recovery reuses it verbatim to rebuild a
	// respawned worker (the blobs are precomputed once, outside the closure).
	sendSetup := func(i int, c net.Conn) error {
		cfgJSON, err := cfgFor(i)
		if err != nil {
			return err
		}
		for _, sec := range []struct {
			id   uint8
			blob []byte
		}{
			{wire.SecConfig, cfgJSON}, {wire.SecView, viewBins[i]},
			{wire.SecWorld, worldBin}, {wire.SecDynamics, dynBin},
		} {
			for _, ch := range wire.Chunks(sec.id, sec.blob) {
				if err := wire.WriteFrame(c, wire.TSetupChunk, ch.Encode()); err != nil {
					return fmt.Errorf("fednet: setup shard %d: %w", i, err)
				}
			}
		}
		return nil
	}
	for i, c := range conns {
		if err := sendSetup(i, c); err != nil {
			return nil, err
		}
		opts.Log("fednet: shard %d view: %d of %d links, %d frontier nodes, %d summary nodes",
			i, len(views[i].Links), dist.Graph.NumLinks(), len(views[i].Frontier), len(views[i].Summary))
	}
	var metrics *obs.Metrics
	var metricsAddr string
	if opts.MetricsListen != "" {
		metrics = obs.NewMetrics("coordinator", -1)
		addr, closeMetrics, err := metrics.Serve(opts.MetricsListen)
		if err != nil {
			return nil, fmt.Errorf("fednet: metrics listen %s: %w", opts.MetricsListen, err)
		}
		defer closeMetrics() //nolint:errcheck
		metricsAddr = addr
		opts.Log("fednet: coordinator metrics on http://%s/metrics", addr)
	}
	tr := &coordTransport{
		conns: conns, timeout: opts.Timeout, metrics: metrics,
		oracle: oracle, summaries: summaries, spawned: spawned,
		sent: make([][]uint64, opts.Cores),
	}
	for i := range tr.sent {
		tr.sent[i] = make([]uint64, opts.Cores)
	}
	if opts.Recover {
		if opts.CkptDir != "" {
			if err := os.MkdirAll(opts.CkptDir, 0o755); err != nil {
				return nil, fmt.Errorf("fednet: checkpoint dir: %w", err)
			}
		}
		tr.rec = &recoveryState{
			ln: ln, join: ln.Addr().String(), fed: fed, timeout: opts.Timeout,
			spawned: spawned, addrs: addrs, dataPlane: opts.DataPlane,
			sendSetup: sendSetup, log: opts.Log,
			ckptEvery: opts.CkptEvery, ckptDir: opts.CkptDir,
			maxRecoveries: opts.MaxRecoveries,
			ckpts:         make([][]byte, opts.Cores), ckptRound: -1,
		}
	}
	if fs := opts.FailSpec; fs != nil && fs.Mode == FailSigkill {
		tr.killRound, tr.killShard = fs.Round, fs.Shard
	}
	gatewayAddrs := make([]string, opts.Cores)
	workerMetrics := make([]string, opts.Cores)
	for i := range conns {
		typ, body, err := tr.read(i)
		if err != nil {
			return nil, err
		}
		if typ != wire.TSetupAck {
			return nil, fmt.Errorf("fednet: shard %d: expected setup ack, got frame type %d (%q)", i, typ, body)
		}
		if len(body) > 0 {
			var ack setupAck
			if err := json.Unmarshal(body, &ack); err != nil {
				return nil, fmt.Errorf("fednet: shard %d setup ack: %w", i, err)
			}
			gatewayAddrs[i] = ack.GatewayAddr
			workerMetrics[i] = ack.MetricsAddr
			if ack.MetricsAddr != "" {
				opts.Log("fednet: shard %d metrics on http://%s/metrics", i, ack.MetricsAddr)
			}
		}
	}
	if fs := opts.FailSpec; fs != nil && (fs.Mode == "" || fs.Mode == FailExit) {
		// Arm exit-mode fault injection once, on the first boot only: the
		// directive is deliberately outside the logged rounds, so recovery
		// never replays the crash it is recovering from.
		body := wire.Fail{Round: uint32(fs.Round)}.Encode()
		if err := wire.WriteFrame(conns[fs.Shard], wire.TFail, body); err != nil {
			return nil, err
		}
	}
	opts.Log("fednet: all %d shards up, running", opts.Cores)
	if opts.Edge != nil {
		live := 0
		for i, a := range gatewayAddrs {
			if a != "" {
				live++
				opts.Log("fednet: shard %d gateway listening on %s", i, a)
			}
		}
		if live == 0 {
			return nil, fmt.Errorf("fednet: gateway lease granted but no worker homes a mapped ingress VN")
		}
	}
	if opts.OnLive != nil {
		opts.OnLive(append([]string(nil), gatewayAddrs...))
	}

	deadline := vtime.Forever
	if opts.RunFor > 0 {
		deadline = vtime.Time(0).Add(opts.RunFor)
	}
	// Cut describes the partition the run synchronized under, so when link
	// dynamics can lower a cut pipe's latency mid-run the stats are taken
	// over the profile floors.
	rep := &Report{
		Cores: opts.Cores, DataPlane: opts.DataPlane,
		Cut:                asn.CutStats(dist.Graph, opts.Dynamics.LatencyFloorFunc()),
		GatewayAddrs:       gatewayAddrs,
		MetricsAddr:        metricsAddr,
		WorkerMetricsAddrs: workerMetrics,
	}
	var pace *parcore.Pacing
	begin := time.Now()
	if opts.RealTime {
		pace = &parcore.Pacing{Quantum: opts.Pace}
		tr.paceEpoch = begin
	}
	if err := parcore.Drive(tr, &rep.Sync, deadline, parcore.DriveOpts{Pace: pace, Chain: chain}); err != nil {
		return nil, err
	}
	rep.WallMS = float64(time.Since(begin).Microseconds()) / 1000
	if tr.rec != nil {
		rep.Recoveries = tr.rec.recoveries
		rep.RecoveryWallNs = tr.rec.recoveryWallNs
	}

	for i := range conns {
		if err := wire.WriteFrame(conns[i], wire.TFinish, nil); err != nil {
			return nil, err
		}
	}
	rep.Workers = make([]WorkerReport, opts.Cores)
	var traceEvents []obs.Event
	for i := range conns {
		// A worker streams zero or more TTrace chunks, then its TReport.
		var typ uint8
		var body []byte
		for {
			typ, body, err = tr.read(i)
			if err != nil {
				return nil, err
			}
			if typ != wire.TTrace {
				break
			}
			evs, err := decodeTraceChunk(body)
			if err != nil {
				return nil, fmt.Errorf("fednet: shard %d: %w", i, err)
			}
			traceEvents = append(traceEvents, evs...)
		}
		if typ != wire.TReport {
			return nil, fmt.Errorf("fednet: shard %d: expected report, got frame type %d", i, typ)
		}
		var wr WorkerReport
		if err := json.Unmarshal(body, &wr); err != nil {
			return nil, fmt.Errorf("fednet: shard %d report: %w", i, err)
		}
		rep.Workers[i] = wr
		rep.Frames += wr.Frames
		rep.BytesOnWire += wr.BytesOnWire
		rep.Totals.Injected += wr.Totals.Injected
		rep.Totals.Delivered += wr.Totals.Delivered
		rep.Totals.NoRoute += wr.Totals.NoRoute
		rep.Totals.PhysDrops += wr.Totals.PhysDrops
		rep.Totals.VirtualDrops += wr.Totals.VirtualDrops
		rep.Totals.InFlight += wr.Totals.InFlight
		rep.Accuracy.Merge(wr.Accuracy)
		rep.Deliveries = append(rep.Deliveries, wr.Deliveries...)
		if len(wr.PipeDrops) > len(rep.PipeDrops) {
			rep.PipeDrops = append(rep.PipeDrops, make([]uint64, len(wr.PipeDrops)-len(rep.PipeDrops))...)
		}
		for p, n := range wr.PipeDrops {
			rep.PipeDrops[p] += n
		}
		if len(wr.DropsByReason) > len(rep.DropsByReason) {
			rep.DropsByReason = append(rep.DropsByReason, make([]uint64, len(wr.DropsByReason)-len(rep.DropsByReason))...)
		}
		for r, n := range wr.DropsByReason {
			rep.DropsByReason[r] += n
		}
		if wr.Edge != nil {
			rep.Edge.Merge(*wr.Edge)
		}
	}
	if opts.Trace {
		rep.Trace = obs.FromEvents(traceEvents)
	}
	// CutStats' minimum cut latency is the cluster-granularity analog of
	// parcore.Runtime.Lookahead.
	rep.Lookahead = rep.Cut.Lookahead
	if err := waitWorkers(spawned); err != nil {
		return nil, err
	}
	return rep, nil
}

// acceptWorkers admits Cores workers and reads their hello frames.
func acceptWorkers(ln net.Listener, opts Options) ([]net.Conn, []hello, error) {
	conns := make([]net.Conn, 0, opts.Cores)
	hellos := make([]hello, 0, opts.Cores)
	fail := func(err error) ([]net.Conn, []hello, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, nil, err
	}
	for len(conns) < opts.Cores {
		c, h, err := acceptOne(ln, opts.Timeout)
		if err != nil {
			return fail(fmt.Errorf("fednet: waiting for workers (%d of %d joined): %w", len(conns), opts.Cores, err))
		}
		conns = append(conns, c)
		hellos = append(hellos, h)
		opts.Log("fednet: shard %d joined from %s", len(conns)-1, c.RemoteAddr())
	}
	return conns, hellos, nil
}

// acceptOne admits one worker: accept its control connection and read its
// hello frame, both under the timeout.
func acceptOne(ln net.Listener, timeout time.Duration) (net.Conn, hello, error) {
	if dl, ok := ln.(*net.TCPListener); ok {
		_ = dl.SetDeadline(time.Now().Add(timeout))
	}
	c, err := ln.Accept()
	if err != nil {
		return nil, hello{}, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	_ = c.SetReadDeadline(time.Now().Add(timeout))
	typ, body, err := wire.ReadFrame(c)
	if err != nil || typ != wire.THello {
		c.Close()
		return nil, hello{}, fmt.Errorf("fednet: bad join (frame type %d): %v", typ, err)
	}
	var h hello
	if err := json.Unmarshal(body, &h); err != nil {
		c.Close()
		return nil, hello{}, fmt.Errorf("fednet: bad hello: %w", err)
	}
	return c, h, nil
}

// coordTransport is the socket-backed parcore.Transport: a barrier round is
// one TStep/TStepDone exchange with every worker. Cumulative per-peer send
// counters reported by workers let the round tell every worker exactly how
// many data-plane messages to await, which is what makes the protocol
// immune to datagram reordering.
type coordTransport struct {
	conns   []net.Conn
	timeout time.Duration

	// metrics, when non-nil, is the coordinator's live endpoint; it is
	// updated at round boundaries (the only points where worker-reported
	// state is coherent). vnow is the highest worker clock reported so far,
	// messages the cross-core message total; paceEpoch is set on paced runs
	// (the lag gauge is wall time since it minus vnow).
	metrics   *obs.Metrics
	vnow      vtime.Time
	messages  uint64
	paceEpoch time.Time

	// oracle and summaries serve demand-paged route summaries: a worker that
	// misses a destination in its ShardTable sends TRouteReq on the control
	// conn; read answers inline, so the RPC is always served while the
	// coordinator awaits that worker's next protocol reply (a worker only
	// pages routes while installing its scenario or running its window).
	oracle    *bind.SummaryOracle
	summaries [][]topology.NodeID

	// rec, when non-nil, is the checkpoint/restart engine (Options.Recover):
	// it logs every barrier round, stores checkpoint digests, and replays a
	// respawned worker back to the crash point. stepIdx numbers rounds
	// 1-based — the checkpoint cadence and fault injection count in it.
	rec     *recoveryState
	stepIdx int
	// killRound/killShard arm sigkill-mode fault injection: at the start of
	// round killRound, the coordinator SIGKILLs killShard's process. Zero
	// killRound = disarmed (also after firing).
	killRound int
	killShard int
	spawned   []*spawnedWorker

	// sent[i][j] is the cumulative number of messages worker i has reported
	// sending to worker j. A round's Expect vectors are its columns: every
	// message reported by the end of one round is awaited and applied at the
	// start of the next.
	sent [][]uint64
}

// Cores implements parcore.Transport.
func (t *coordTransport) Cores() int { return len(t.conns) }

// read reads one control frame from worker i, surfacing worker errors.
// Route-summary RPCs (TRouteReq) are served inline: the worker blocks on the
// response mid-window, and the coordinator is by construction reading worker
// i's conn whenever worker i can be running — so the RPC never deadlocks.
func (t *coordTransport) read(i int) (uint8, []byte, error) {
	c := t.conns[i]
	for {
		if err := c.SetReadDeadline(time.Now().Add(t.timeout)); err != nil {
			return 0, nil, err
		}
		typ, body, err := wire.ReadFrame(c)
		if err != nil {
			// A conn-level failure is the liveness signal for a dead worker:
			// typed so the recovery machinery (when armed) can catch it and
			// respawn instead of failing the run.
			return 0, nil, &shardDeadError{shard: i, cause: err}
		}
		switch typ {
		case wire.TError:
			return 0, nil, fmt.Errorf("fednet: shard %d failed: %s", i, body)
		case wire.TRouteReq:
			m, err := wire.DecodeRouteReq(body)
			if err != nil {
				return 0, nil, fmt.Errorf("fednet: shard %d route req: %w", i, err)
			}
			dists, err := t.oracle.Seeds(m.Epoch, topology.NodeID(m.Target), t.summaries[i])
			if err != nil {
				return 0, nil, fmt.Errorf("fednet: shard %d route req (epoch %d, target %d): %w", i, m.Epoch, m.Target, err)
			}
			resp := wire.RouteResp{Epoch: m.Epoch, Target: m.Target, Dists: dists}
			if err := wire.WriteFrame(c, wire.TRouteResp, resp.Encode()); err != nil {
				return 0, nil, fmt.Errorf("fednet: shard %d route resp: %w", i, err)
			}
		default:
			return typ, body, nil
		}
	}
}

// boundsOf assembles a parcore.Bounds from wire integers; a SafeTo vector
// of the wrong arity (a shard on a non-eager profile reports none) is
// dropped.
func boundsOf(next, safe int64, safeTo []int64, k int) parcore.Bounds {
	b := parcore.Bounds{Next: vtime.Time(next), Safe: vtime.Time(safe)}
	if len(safeTo) == k {
		b.SafeTo = make([]vtime.Time, k)
		for j, s := range safeTo {
			b.SafeTo[j] = vtime.Time(s)
		}
	}
	return b
}

// Step implements parcore.Transport: one TStep to every worker — await the
// expectation prefix, Shard.Step, reply — and the TStepDone replies folded
// into reports. All workers run their shards concurrently; this is where
// federation buys real parallelism.
func (t *coordTransport) Step(cmds []parcore.Cmd) ([]parcore.Report, error) {
	k := len(t.conns)
	t.stepIdx++
	if t.killRound > 0 && t.stepIdx == t.killRound {
		// Sigkill-mode fault injection: a real, unannounced process death at
		// the round's edge, racing the round's own frames.
		t.killRound = 0
		if w := t.spawned[t.killShard]; w != nil && w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
	}
	ckpt := t.rec != nil && t.stepIdx%t.rec.ckptEvery == 0
	bodies := make([][]byte, k)
	for i, c := range cmds {
		expect := make([]uint64, k)
		for j := range expect {
			expect[j] = t.sent[j][i]
		}
		bodies[i] = wire.Step{
			Floor: int64(c.Floor), Grant: int64(c.Grant), Drain: c.Drain, Ckpt: ckpt, Expect: expect,
		}.Encode()
	}
	replies, err := t.round(bodies, ckpt)
	if err != nil {
		return nil, err
	}
	reps := make([]parcore.Report, k)
	for i, body := range replies {
		m, err := wire.DecodeStepDone(body)
		if err != nil {
			return nil, err
		}
		if len(m.Counts.Sent) != k {
			return nil, fmt.Errorf("fednet: shard %d reported %d peer counters, want %d", i, len(m.Counts.Sent), k)
		}
		// Whatever worker i's counters grew by this round is now in flight.
		for j, s := range m.Counts.Sent {
			if s < t.sent[i][j] {
				return nil, fmt.Errorf("fednet: shard %d send counter to %d went backwards (%d -> %d)", i, j, t.sent[i][j], s)
			}
			reps[i].Sent += s - t.sent[i][j]
			reps[j].Inflight += s - t.sent[i][j]
			t.messages += s - t.sent[i][j]
			t.sent[i][j] = s
		}
		if now := vtime.Time(m.Counts.Now); now > t.vnow {
			t.vnow = now
		}
		reps[i].Bounds = boundsOf(m.Next, m.Safe, m.SafeTo, k)
		reps[i].Progressed = m.Progressed
	}
	if cmds[0].Drain {
		t.metrics.AddSerialRounds(1)
	} else if cmds[0].Grant >= 0 {
		t.metrics.AddWindows(1)
	}
	t.metrics.SetVTime(int64(t.vnow))
	t.metrics.SetMessages(t.messages)
	if !t.paceEpoch.IsZero() {
		t.metrics.SetLag(int64(time.Since(t.paceEpoch)) - int64(t.vnow))
	}
	return reps, nil
}

// round runs one logged barrier round: write bodies[i] to every worker,
// read one TStepDone reply (plus a TCheckpoint digest when ckpt) from each,
// and — when recovery is armed — respawn and replay any worker whose
// connection died, then log the round for future replays. The returned
// replies are by shard.
func (t *coordTransport) round(bodies [][]byte, ckpt bool) ([][]byte, error) {
	k := len(t.conns)
	var failed []int
	for i := 0; i < k; i++ {
		if err := wire.WriteFrame(t.conns[i], wire.TStep, bodies[i]); err != nil {
			if t.rec == nil {
				return nil, fmt.Errorf("fednet: shard %d: %w", i, err)
			}
			failed = append(failed, i)
		}
	}
	replies := make([][]byte, k)
	ckpts := make([][]byte, k)
	for i := 0; i < k; i++ {
		if hasInt(failed, i) {
			continue // already marked dead at write time
		}
		body, ck, err := t.readDone(i, ckpt)
		if err != nil {
			var dead *shardDeadError
			if t.rec != nil && errors.As(err, &dead) {
				failed = append(failed, i)
				continue
			}
			return nil, err
		}
		replies[i], ckpts[i] = body, ck
	}
	// Every live worker has finished the round (its barrier wait only needed
	// the previous round's flush data, which predates any death this round);
	// the dead ones are respawned, replayed through the logged prefix, and
	// then served this round's body afresh.
	for _, i := range failed {
		if err := t.rec.recover(t, i); err != nil {
			return nil, err
		}
		if err := wire.WriteFrame(t.conns[i], wire.TStep, bodies[i]); err != nil {
			return nil, fmt.Errorf("fednet: shard %d: respawn write: %w", i, err)
		}
		body, ck, err := t.readDone(i, ckpt)
		if err != nil {
			return nil, fmt.Errorf("fednet: shard %d: after recovery: %w", i, err)
		}
		replies[i], ckpts[i] = body, ck
	}
	if t.rec != nil {
		t.rec.logRound(bodies, replies, ckpt, ckpts)
	}
	return replies, nil
}

// readDone reads worker i's round reply, and its checkpoint digest when the
// round asked for one.
func (t *coordTransport) readDone(i int, ckpt bool) (reply, ckptBlob []byte, err error) {
	typ, body, err := t.read(i)
	if err != nil {
		return nil, nil, err
	}
	if typ != wire.TStepDone {
		return nil, nil, fmt.Errorf("fednet: shard %d: expected step done, got frame type %d", i, typ)
	}
	if ckpt {
		typ2, blob, err := t.read(i)
		if err != nil {
			return nil, nil, err
		}
		if typ2 != wire.TCheckpoint {
			return nil, nil, fmt.Errorf("fednet: shard %d: expected checkpoint, got frame type %d", i, typ2)
		}
		if _, err := wire.DecodeCheckpoint(blob); err != nil {
			return nil, nil, fmt.Errorf("fednet: shard %d checkpoint: %w", i, err)
		}
		ckptBlob = blob
	}
	return body, ckptBlob, nil
}

func hasInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
