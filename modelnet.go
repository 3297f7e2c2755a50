// Package modelnet is a Go reproduction of ModelNet (Vahdat et al.,
// "Scalability and Accuracy in a Large-Scale Network Emulator", OSDI 2002):
// a large-scale network emulation environment in which unmodified
// application logic, running on virtual edge nodes (VNs), is subjected to
// the bandwidth, latency, loss, queueing, and congestion of an arbitrary
// target topology emulated link-by-link by a cluster of core routers.
//
// The system runs the paper's five phases:
//
//	CREATE   — build or load a target topology   (internal/topology)
//	DISTILL  — transform it into a pipe topology (internal/distill)
//	ASSIGN   — partition pipes across cores      (internal/assign)
//	BIND     — place VNs, compute routes, POD    (internal/bind)
//	RUN      — emulate packets in virtual time   (internal/emucore)
//
// This root package wires the phases together behind one call:
//
//	g := modelnet.Ring(20, 20, ringAttrs, accessAttrs)
//	em, err := modelnet.Run(g, modelnet.Options{Cores: 4})
//	h := em.NewHost(0)            // netstack on VN 0
//	...start applications on hosts...
//	em.RunFor(modelnet.Seconds(30))
//
// Everything executes in virtual time: the clock advances only as events
// fire, so results are deterministic and GC pauses cannot corrupt delay
// accuracy (the key substitution this reproduction makes for the paper's
// in-kernel real-time core; see DESIGN.md).
package modelnet

import (
	"fmt"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/distill"
	"modelnet/internal/dynamics"
	"modelnet/internal/edge"
	"modelnet/internal/emucore"
	"modelnet/internal/fednet"
	"modelnet/internal/netstack"
	"modelnet/internal/obs"
	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Re-exported aliases so common use needs only this package.
type (
	// Graph is a target or distilled topology.
	Graph = topology.Graph
	// LinkAttrs are per-link emulation parameters.
	LinkAttrs = topology.LinkAttrs
	// VN identifies a virtual edge node.
	VN = pipes.VN
	// Host is a VN's transport stack (TCP/UDP/RPC).
	Host = netstack.Host
	// Endpoint is a (VN, port) pair.
	Endpoint = netstack.Endpoint
	// Time is virtual time; Duration a virtual span.
	Time = vtime.Time
	// Duration is a span of virtual time.
	Duration = vtime.Duration
	// Profile models core-cluster hardware capacity.
	Profile = emucore.Profile
	// Totals are the cluster-wide conservation counters.
	Totals = emucore.Totals
	// DistillSpec selects the accuracy/scalability tradeoff of §4.1.
	DistillSpec = distill.Spec
	// DynamicsSpec describes virtual-time link dynamics (§4.3): trace
	// replay, scripted failure/recovery, route reconvergence.
	DynamicsSpec = dynamics.Spec
	// DynamicsProfile is one link's timeline of parameter steps.
	DynamicsProfile = dynamics.Profile
	// DynamicsStep is a single scheduled parameter change; use
	// dynamics.Unchanged semantics via the Parse helpers below.
	DynamicsStep = dynamics.Step
)

// Distillation modes (§4.1).
const (
	HopByHop = distill.HopByHop
	EndToEnd = distill.EndToEnd
	WalkIn   = distill.WalkIn
	WalkOut  = distill.WalkOut
)

// Topology constructors re-exported from internal/topology.
var (
	NewGraph    = topology.New
	Ring        = topology.Ring
	Star        = topology.Star
	Line        = topology.Line
	Pairs       = topology.Pairs
	FullMesh    = topology.FullMesh
	TransitStub = topology.TransitStub
	ReadGML     = topology.ReadGML
	WriteGML    = topology.WriteGML
	Mbps        = topology.Mbps
	Ms          = topology.Ms
)

// Seconds converts seconds to a virtual Duration.
func Seconds(s float64) Duration { return vtime.DurationOf(s) }

// DefaultProfile models the paper's testbed hardware (see DESIGN.md for
// the calibration); IdealProfile is the event-exact, infinitely
// provisioned reference (the "ns-2 role").
var (
	DefaultProfile = emucore.DefaultProfile
	IdealProfile   = emucore.IdealProfile
)

// Link-dynamics constructors re-exported from internal/dynamics: a
// scripted fault timeline ("3@2s loss=0.05; 3@5s down; 3@8s up;
// reroute=100ms"), a capacity trace for one link ("time_s bw_mbps
// [lat_ms]" lines), and the bundled lte/satellite/wifi sample traces.
var (
	ParseScript  = dynamics.ParseScript
	TraceProfile = dynamics.TraceProfile
	BundledTrace = dynamics.BundledTrace
)

// Options configure an emulation.
type Options struct {
	// Distill selects the distillation mode; zero value = hop-by-hop.
	Distill DistillSpec
	// Cores is the number of emulated core routers (default 1). Pipes are
	// partitioned with greedy k-clusters when Cores > 1.
	Cores int
	// EdgeNodes is the number of physical edge machines VNs multiplex
	// onto (default: one per VN).
	EdgeNodes int
	// RouteCache bounds the route cache every run routes through (§2.2):
	// routes are computed on first lookup, at most this many kept. Zero
	// picks bind.DefaultRouteCache and refuses a world with an unreachable
	// VN pair.
	RouteCache int
	// Profile models the core hardware; zero value = DefaultProfile().
	// Use IdealProfile() for an exact reference emulation.
	Profile *Profile
	// Seed determinizes loss, assignment, and other randomness.
	Seed int64
	// Parallel, with Cores > 1, runs each emulated core router on its own
	// goroutine with its own scheduler, synchronized conservatively
	// (internal/parcore). Same seed ⇒ same results run-to-run, and — under
	// an event-exact profile such as IdealProfile — the same counters and
	// delivery times as the sequential mode. In parallel mode Sched and
	// Emu are nil: drive the run through the Emulation methods (RunFor,
	// Totals, OnDeliver, SchedulerOf) and keep application callbacks on
	// their own host's scheduler.
	Parallel bool
	// Dynamics, when non-nil, schedules link-parameter changes — trace
	// replay, scripted failures, recovery with route reconvergence — as
	// virtual-time events (internal/dynamics). The same spec applies
	// bit-exactly in sequential, parallel, and federated runs.
	Dynamics *dynamics.Spec
	// Trace records a virtual-time packet trace (internal/obs): every pipe
	// enqueue/dequeue/drop/delivery, dynamics step, and cross-core handoff,
	// stamped in virtual ns. Retrieve it with Emulation.TraceData (or
	// FederationReport.Trace in federated runs). Under an event-exact
	// profile the trace's canonical form is byte-identical across the
	// sequential, parallel, and federated modes.
	Trace bool
	// Federate configures multi-process federation (internal/fednet):
	// each core router runs in its own OS process — on its own machine,
	// with remote workers — and the determinism contract above extends
	// across them. Federated runs are driven by registered scenario, not
	// by an Emulation handle: use modelnet.Federate, not Run.
	Federate *FederateOptions
}

// FederateOptions are the federation knobs of Options.
type FederateOptions struct {
	// Listen is the coordinator's control-plane address (default
	// "127.0.0.1:0"; use ":port" to admit workers from other machines).
	Listen string
	// DataPlane carries cross-core tunnel messages: "udp" (default, the
	// paper's IP-in-UDP tunnels) or "tcp" (lossless fallback).
	DataPlane string
	// Spawn re-executes the current binary as the worker fleet; leave
	// false when `modelnet core -join` workers connect on their own.
	Spawn bool
	// CollectDeliveries records every delivery's virtual time in the
	// report (the cross-mode determinism probe).
	CollectDeliveries bool
	// MaxDatagram bounds one UDP data-plane frame in bytes; each window's
	// messages per peer coalesce into batch frames chunked to fit. 0 means
	// fednet.DefaultMaxDatagram.
	MaxDatagram int
	// Edge is the live edge gateway lease (internal/edge): real UDP
	// sockets on the workers, mapped onto ingress VNs, so unmodified
	// external processes can exchange packets with the emulated core.
	// Live runs usually also want RealTime. See DESIGN.md §4.
	Edge *edge.GatewayConfig
	// RealTime slaves window release to the wall clock (virtual ns = wall
	// ns, the paper's 10 kHz-timer role); requires a finite run duration.
	RealTime bool
	// Pace is the real-time pacing quantum (0 = parcore.DefaultPaceQuantum).
	Pace Duration
	// OnLive, when set, runs once all workers are up — before the clock
	// starts — with each shard's gateway address ("" for shards without
	// one).
	OnLive func(gatewayAddrs []string)
	// MetricsListen, when non-empty, serves live run metrics over HTTP
	// (Prometheus text at /metrics, JSON at /metrics.json, the process's
	// pprof handlers under /debug/pprof/) on the coordinator at this
	// address; each worker additionally binds a loopback endpoint and
	// reports it in FederationReport.
	MetricsListen string
	// Recover enables checkpoint/restart fault tolerance (requires
	// Spawn): the coordinator takes per-shard state digests at
	// checkpoint barriers, and when a worker process dies mid-run it is
	// respawned and caught up by deterministic round replay. The
	// recovered run's counters, deliveries, and canonical trace are
	// byte-identical to a never-crashed run. See DESIGN.md §8.
	Recover bool
	// CkptEvery is the checkpoint period in step rounds (0 =
	// fednet.DefaultCkptEvery).
	CkptEvery int
	// CkptDir, when non-empty, persists each checkpoint's per-shard
	// digests under this directory (shard-N.ckpt, canonical wire bytes).
	CkptDir string
	// Fail plants one fault for the crash-sweep harness: the chosen
	// worker dies at the chosen step round (by clean exit or SIGKILL),
	// exercising the Recover path on demand. CLI: -fail SHARD@ROUND[:MODE].
	Fail *FailSpec
}

// FailSpec is a planted worker fault (see FederateOptions.Fail).
type FailSpec = fednet.FailSpec

// FederationReport is a federated run's aggregated outcome.
type FederationReport = fednet.Report

// Federate runs a registered federation scenario (internal/fednet;
// internal/experiments registers "ring-cbr" and "gnutella-ring") for
// runFor virtual time across Options.Cores worker processes. The usual
// Options fields — Cores, Seed, Profile, Distill, EdgeNodes — mean what they
// mean for Run (RouteCache does not apply: every worker routes through a
// demand-paged shard table); Options.Federate supplies the socket-layer
// knobs.
func Federate(scenario string, params any, runFor Duration, opts Options) (*FederationReport, error) {
	fo := FederateOptions{}
	if opts.Federate != nil {
		fo = *opts.Federate
	}
	return fednet.Run(fednet.Options{
		Scenario: scenario,
		Params:   params,
		Cores:    opts.Cores,
		Seed:     opts.Seed,
		Profile:  opts.Profile,
		Distill:  opts.Distill,

		EdgeNodes:         opts.EdgeNodes,
		RunFor:            runFor,
		Dynamics:          opts.Dynamics,
		Trace:             opts.Trace,
		MetricsListen:     fo.MetricsListen,
		Listen:            fo.Listen,
		DataPlane:         fo.DataPlane,
		Spawn:             fo.Spawn,
		CollectDeliveries: fo.CollectDeliveries,
		MaxDatagram:       fo.MaxDatagram,
		Edge:              fo.Edge,
		RealTime:          fo.RealTime,
		Pace:              fo.Pace,
		OnLive:            fo.OnLive,
		Recover:           fo.Recover,
		CkptEvery:         fo.CkptEvery,
		CkptDir:           fo.CkptDir,
		FailSpec:          fo.Fail,
	})
}

// Emulation is a fully bound, running-ready emulation.
//
// In sequential mode (the default) Sched drives everything and Emu is the
// single emulator. In parallel mode (Options.Parallel) Par replaces both:
// Sched and Emu are nil, each VN's host lives on its home core's scheduler
// (SchedulerOf), and cluster-wide counters come from Totals and Accuracy.
type Emulation struct {
	Sched      *vtime.Scheduler
	Target     *Graph
	Distilled  *distill.Result
	Binding    *bind.Binding
	Assignment *assign.Assignment
	Emu        *emucore.Emulator
	Par        *parcore.Runtime

	hosts map[VN]*Host
	// emus are the run's emulators: [Emu], or the shards in parallel mode.
	// Every cluster-wide counter is one loop over them.
	emus []*emucore.Emulator
}

// Run executes the Create→Distill→Assign→Bind phases over the target
// topology and returns an emulation ready for the Run phase (start
// applications on hosts, then drive the scheduler).
func Run(target *Graph, opts Options) (*Emulation, error) {
	if opts.Federate != nil {
		return nil, fmt.Errorf("modelnet: Options.Federate set: federated runs are scenario-driven, use modelnet.Federate")
	}
	if err := target.Validate(); err != nil {
		return nil, fmt.Errorf("modelnet: create: %w", err)
	}
	dist, err := distill.Distill(target, opts.Distill)
	if err != nil {
		return nil, fmt.Errorf("modelnet: distill: %w", err)
	}
	cores := opts.Cores
	if cores < 1 {
		cores = 1
	}
	asn, err := assign.KClusters(dist.Graph, cores, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("modelnet: assign: %w", err)
	}
	b, err := bind.Bind(dist.Graph, bind.Options{
		EdgeNodes:  opts.EdgeNodes,
		Cores:      cores,
		RouteCache: opts.RouteCache,
	})
	if err != nil {
		return nil, fmt.Errorf("modelnet: bind: %w", err)
	}
	prof := emucore.DefaultProfile()
	if opts.Profile != nil {
		prof = *opts.Profile
	}
	em := &Emulation{
		Target:     target,
		Distilled:  dist,
		Binding:    b,
		Assignment: asn,
		hosts:      make(map[VN]*Host),
	}
	if opts.Parallel && cores > 1 {
		par, err := parcore.New(parcore.Config{
			Graph:      dist.Graph,
			Binding:    b,
			Assignment: asn,
			Profile:    prof,
			Seed:       opts.Seed,
			Dynamics:   opts.Dynamics,
			Trace:      opts.Trace,
		})
		if err != nil {
			return nil, fmt.Errorf("modelnet: run: %w", err)
		}
		em.Par = par
		for i := 0; i < par.Cores(); i++ {
			em.emus = append(em.emus, par.ShardEmu(i))
		}
		return em, nil
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, dist.Graph, b, asn.POD(), prof, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("modelnet: run: %w", err)
	}
	if opts.Trace {
		emu.Trace = obs.NewTracer(-1)
	}
	if _, err := dynamics.Attach(sched, emu, opts.Dynamics); err != nil {
		return nil, fmt.Errorf("modelnet: dynamics: %w", err)
	}
	em.Sched = sched
	em.Emu = emu
	em.emus = []*emucore.Emulator{emu}
	return em, nil
}

// NumVNs reports how many VNs the emulation binds.
func (e *Emulation) NumVNs() int { return e.Binding.NumVNs() }

// SchedulerOf returns the scheduler that drives vn's host: the global
// scheduler in sequential mode, the VN's home-core scheduler in parallel
// mode. Application timers for a VN must use its own scheduler.
func (e *Emulation) SchedulerOf(vn VN) *vtime.Scheduler {
	if e.Par != nil {
		return e.Par.SchedOf(vn)
	}
	return e.Sched
}

// injectorOf returns the emulator vn's packets enter.
func (e *Emulation) injectorOf(vn VN) *emucore.Emulator {
	if e.Par != nil {
		return e.Par.EmuOf(vn)
	}
	return e.Emu
}

// NewHost returns the transport stack for a VN, creating it on first use.
// If the VN's stack was already created — by NewHost or by NewHostVia —
// that same stack is returned, including its injection wrapper; a VN has
// exactly one stack.
func (e *Emulation) NewHost(vn VN) *Host {
	if h, ok := e.hosts[vn]; ok {
		return h
	}
	emu := e.injectorOf(vn)
	h := netstack.NewHost(vn, e.SchedulerOf(vn), emu, emu)
	e.hosts[vn] = h
	return h
}

// NewHosts creates hosts for every VN, indexed by VN number.
func (e *Emulation) NewHosts() []*Host {
	out := make([]*Host, e.NumVNs())
	for v := range out {
		out[v] = e.NewHost(VN(v))
	}
	return out
}

// NewHostVia creates the stack for a VN whose packets pass through the
// given injection wrapper (e.g. an edge-machine model). It panics if the
// VN already has a stack: a host created by NewHost would bypass inj, so
// the wrapping must be established before first use, not after.
func (e *Emulation) NewHostVia(vn VN, inj netstack.Injector) *Host {
	if _, ok := e.hosts[vn]; ok {
		panic(fmt.Sprintf("modelnet: NewHostVia(%d): VN already has a host; create wrapped hosts before NewHost", vn))
	}
	h := netstack.NewHost(vn, e.SchedulerOf(vn), inj, e.injectorOf(vn))
	e.hosts[vn] = h
	return h
}

// Totals aggregates the conservation counters, transparently across
// sequential and parallel modes.
func (e *Emulation) Totals() emucore.Totals {
	var t emucore.Totals
	for _, emu := range e.emus {
		t.Add(emu.Totals())
	}
	return t
}

// PipeDrops returns the per-pipe drop count vector, indexed by pipe ID
// (summed elementwise across shards in parallel mode). It is comparable
// across execution modes and against FederationReport.PipeDrops.
func (e *Emulation) PipeDrops() []uint64 {
	drops := make([]uint64, e.Distilled.Graph.NumLinks())
	for _, emu := range e.emus {
		for i, n := range emu.PipeDrops() {
			drops[i] += n
		}
	}
	return drops
}

// DropsByReason returns the unified drop taxonomy vector, indexed by
// pipes.DropReason (summed across shards in parallel mode). It is
// comparable across execution modes and against
// FederationReport.DropsByReason.
func (e *Emulation) DropsByReason() []uint64 {
	drops := make([]uint64, pipes.NumDropReasons)
	for _, emu := range e.emus {
		for r, n := range emu.DropsByReason() {
			drops[r] += n
		}
	}
	return drops
}

// TraceData returns the recorded packet trace (Options.Trace), merged
// across shards in parallel mode; nil when tracing was off.
func (e *Emulation) TraceData() *obs.Trace {
	var tracers []*obs.Tracer
	for _, emu := range e.emus {
		if emu.Trace != nil {
			tracers = append(tracers, emu.Trace)
		}
	}
	if len(tracers) == 0 {
		return nil
	}
	return obs.Merge(tracers...)
}

// RunProfile returns the run's wall-clock breakdown. In sequential mode
// only the mode and core count are meaningful; in parallel mode it carries
// the drive loop's barrier/compute/flush split and per-shard
// lookahead-utilization counters.
func (e *Emulation) RunProfile() obs.RunProfile {
	if e.Par == nil {
		return obs.RunProfile{Mode: "sequential", Cores: 1}
	}
	st := e.Par.Stats()
	return obs.RunProfile{
		Mode: "parallel", Cores: e.Par.Cores(),
		Windows: st.Windows, SerialRounds: st.SerialRounds, Messages: st.Messages,
		GrantMinMS:  st.GrantMin().Seconds() * 1000,
		GrantMeanMS: st.GrantMean().Seconds() * 1000,
		GrantMaxMS:  st.GrantMax().Seconds() * 1000,
		Drive:       st.Profile,
		Shards:      e.Par.ShardProfiles(),
	}
}

// AccuracyStats returns the delay-accuracy tracker (merged across cores in
// parallel mode).
func (e *Emulation) AccuracyStats() emucore.Accuracy {
	var a emucore.Accuracy
	for _, emu := range e.emus {
		a.Merge(emu.Accuracy)
	}
	return a
}

// OnDeliver installs a hook observing every completed delivery with its
// delivery time. In parallel mode the hook runs concurrently across cores
// and must be safe for that.
func (e *Emulation) OnDeliver(fn func(pkt *pipes.Packet, at Time)) {
	if e.Par != nil {
		e.Par.SetDeliverHook(fn)
		return
	}
	e.Emu.OnDeliver = fn
}

// Now returns the current virtual time.
func (e *Emulation) Now() Time {
	if e.Par != nil {
		return e.Par.Now()
	}
	return e.Sched.Now()
}

// RunFor advances virtual time by d, firing all due events.
func (e *Emulation) RunFor(d Duration) {
	if e.Par != nil {
		e.Par.RunFor(d)
		return
	}
	e.Sched.RunFor(d)
}

// RunUntil advances virtual time to the deadline.
func (e *Emulation) RunUntil(t Time) {
	if e.Par != nil {
		e.Par.RunUntil(t)
		return
	}
	e.Sched.RunUntil(t)
}
