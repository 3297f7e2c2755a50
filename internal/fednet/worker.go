package fednet

// The worker side of a federation: one process, one parcore shard. The
// worker deterministically rebuilds its slice of the emulation from the
// distributed state and then serves the coordinator's barrier protocol.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"modelnet/internal/bind"
	"modelnet/internal/dynamics"
	"modelnet/internal/edge"
	"modelnet/internal/emucore"
	"modelnet/internal/fednet/wire"
	"modelnet/internal/netstack"
	"modelnet/internal/obs"
	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// WorkerOptions tune a worker process.
type WorkerOptions struct {
	// Timeout bounds every blocking step (control reads, data-plane
	// waits). Zero means DefaultTimeout.
	Timeout time.Duration
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// CPUProfile and MemProfile, when non-empty, make the worker write a
	// pprof CPU / heap profile of everything after setup to
	// "<path>.shard<N>", N being the shard it was assigned.
	CPUProfile, MemProfile string
}

// DefaultTimeout is the per-step liveness bound of a federation.
const DefaultTimeout = 120 * time.Second

func (o *WorkerOptions) defaults() {
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
}

// Worker joins the coordinator at join and serves one shard until the run
// completes. It is the body of the `modelnet core` subcommand.
func Worker(join string, opts WorkerOptions) error {
	opts.defaults()
	conn, err := net.DialTimeout("tcp", join, opts.Timeout)
	if err != nil {
		return fmt.Errorf("fednet: join %s: %w", join, err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	w := &workerState{control: conn, opts: opts}
	if err := w.run(); err != nil {
		// Best-effort error report so the coordinator fails fast instead
		// of timing out.
		_ = wire.WriteFrame(conn, wire.TError, []byte(err.Error()))
		return err
	}
	return nil
}

type workerState struct {
	control net.Conn
	opts    WorkerOptions

	cfg setup
	env *WorkerEnv
	// The shard itself; serve answers each TStep with one Shard.Step over
	// the data plane (dataLink).
	parcore.Shard

	col    *collector
	dp     *dataPlane
	expect []uint64      // the current step's channel prefixes, for dataLink.Recv
	gw     *edge.Gateway // live edge gateway; nil without a homed lease

	// table is the shard-local, demand-paged route table. setupBytes and
	// startupWallNs price what the distribution cost this worker
	// (first-class BENCH columns).
	table         *bind.ShardTable
	setupBytes    uint64
	startupWallNs int64

	sent       []uint64 // cumulative messages sent per peer shard
	deliveries []float64
	report     func() json.RawMessage

	tracer       *obs.Tracer  // non-nil when the setup asked for a trace
	metrics      *obs.Metrics // non-nil when the setup asked for live metrics
	metricsAddr  string
	closeMetrics func() error

	// Recovery state (Recoverable runs): eng is the dynamics engine whose
	// cursor the barrier checkpoints record; resume marks this process as a
	// respawned replacement replaying a logged prefix. failAt arms the
	// fault-injection directive: die on receipt of the failAt-th TStep.
	eng       *dynamics.Engine
	resume    bool
	failAt    int
	stepsSeen int
}

// workerRecovery is the worker's send log: every batch element it ever put
// on the data plane, per peer, pre-encoded in channel-sequence order. A
// respawned peer rebuilds its collector from scratch, so recovery
// retransmits the whole log; the determinism contract keeps a replayed
// worker's log byte-identical to the original's. Guarded by mu: the control
// goroutine appends, reader goroutines snapshot for resends.
type workerRecovery struct {
	mu  sync.Mutex
	log [][][]byte // [peer][tseq-1] = encoded batch element
}

func (r *workerRecovery) append(j int, elems [][]byte) {
	r.mu.Lock()
	r.log[j] = append(r.log[j], elems...)
	r.mu.Unlock()
}

func (r *workerRecovery) snapshot(j int) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.log[j]...)
}

// readControl reads one control frame under the liveness timeout,
// surfacing TError frames as errors.
func (w *workerState) readControl() (uint8, []byte, error) {
	if err := w.control.SetReadDeadline(time.Now().Add(w.opts.Timeout)); err != nil {
		return 0, nil, err
	}
	typ, body, err := wire.ReadFrame(w.control)
	if err != nil {
		return 0, nil, fmt.Errorf("fednet: control read: %w", err)
	}
	if typ == wire.TError {
		return 0, nil, fmt.Errorf("fednet: coordinator error: %s", body)
	}
	return typ, body, nil
}

func (w *workerState) send(typ uint8, body []byte) error {
	return wire.WriteFrame(w.control, typ, body)
}

// run is the worker lifecycle: hello, setup, barrier service, report.
func (w *workerState) run() error {
	// Bind both data planes before announcing: the coordinator picks one.
	// Listeners bind to the interface facing the coordinator, so remote
	// workers announce a routable address rather than localhost.
	localIP := w.control.LocalAddr().(*net.TCPAddr).IP
	tcpLn, err := net.Listen("tcp", net.JoinHostPort(localIP.String(), "0"))
	if err != nil {
		return err
	}
	defer tcpLn.Close()
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: localIP})
	if err != nil {
		return err
	}
	defer udp.Close()

	hb, _ := json.Marshal(hello{TCPAddr: tcpLn.Addr().String(), UDPAddr: udp.LocalAddr().String(), Pid: os.Getpid()})
	if err := w.send(wire.THello, hb); err != nil {
		return err
	}

	typ, body, err := w.readControl()
	if err != nil {
		return err
	}
	if typ == wire.TRecover {
		// This process is a respawned replacement: the setup that follows is
		// a replay, and the data plane must announce itself to the live
		// peers' meshes instead of forming a fresh one.
		if _, err := wire.DecodeRecover(body); err != nil {
			return fmt.Errorf("fednet: recover frame: %w", err)
		}
		w.resume = true
		if typ, body, err = w.readControl(); err != nil {
			return err
		}
	}
	start := time.Now()
	// The setup arrives as chunked sections. Keep reading chunks until all
	// four sections are complete.
	asm := wire.NewChunkAssembler()
	for {
		if typ != wire.TSetupChunk {
			return fmt.Errorf("fednet: expected setup chunk, got frame type %d", typ)
		}
		w.setupBytes += uint64(len(body))
		ch, err := wire.DecodeSetupChunk(body)
		if err != nil {
			return fmt.Errorf("fednet: setup chunk: %w", err)
		}
		if err := asm.Add(ch); err != nil {
			return fmt.Errorf("fednet: setup chunk: %w", err)
		}
		if _, err := asm.Require(wire.SecConfig, wire.SecView, wire.SecWorld, wire.SecDynamics); err == nil {
			break
		}
		if typ, body, err = w.readControl(); err != nil {
			return err
		}
	}
	if err := w.setup(asm, udp, tcpLn); err != nil {
		return err
	}
	w.startupWallNs = int64(time.Since(start))
	stopProfiles, err := obs.StartProfiles(w.shardPath(w.opts.CPUProfile), w.shardPath(w.opts.MemProfile))
	if err != nil {
		return fmt.Errorf("fednet: shard %d: %w", w.cfg.Shard, err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			w.opts.Log("fednet worker: shard %d: %v", w.cfg.Shard, err)
		}
	}()
	if !(w.cfg.Recoverable && w.cfg.DataPlane == DataTCP) {
		// Mesh is up; no further data-plane joins. Recoverable TCP runs keep
		// the listener open for respawned peers (the data plane owns and
		// closes it at teardown).
		tcpLn.Close()
	}
	w.opts.Log("fednet worker: shard %d/%d up (%s data plane, %d VNs homed)",
		w.cfg.Shard, w.cfg.Cores, w.cfg.DataPlane, w.homedVNs())
	defer w.dp.close()
	var ack setupAck
	if w.gw != nil {
		ack.GatewayAddr = w.gw.Addr()
		defer w.gw.Close()
		w.opts.Log("fednet worker: shard %d live gateway on %s", w.cfg.Shard, ack.GatewayAddr)
	}
	if w.metrics != nil {
		ack.MetricsAddr = w.metricsAddr
		defer w.closeMetrics() //nolint:errcheck
	}
	ackBody, err := json.Marshal(ack)
	if err != nil {
		return err
	}
	if err := w.send(wire.TSetupAck, ackBody); err != nil {
		return err
	}
	return w.serve()
}

func (w *workerState) homedVNs() int {
	n := 0
	for vn := 0; vn < w.env.NumVNs(); vn++ {
		if w.env.homes[vn] == w.cfg.Shard {
			n++
		}
	}
	return n
}

// decodeConfig unmarshals and sanity-checks the setup's JSON config section.
func (w *workerState) decodeConfig(cfgJSON []byte) error {
	if err := json.Unmarshal(cfgJSON, &w.cfg); err != nil {
		return fmt.Errorf("fednet: setup config: %w", err)
	}
	cfg := &w.cfg
	if cfg.Shard < 0 || cfg.Cores < 2 || cfg.Shard >= cfg.Cores || len(cfg.DataAddrs) != cfg.Cores {
		return fmt.Errorf("fednet: inconsistent setup: shard %d of %d, %d data addrs", cfg.Shard, cfg.Cores, len(cfg.DataAddrs))
	}
	return nil
}

// setup rebuilds the shard from its chunked per-shard view: a skeleton graph
// over the global ID spaces with only the view's links real, a hand-assembled
// binding from the shipped VN world map (bind.Bind's client scan would
// misread a skeleton), and a demand-paged ShardTable in place of the O(n²)
// route matrix; then sync plan, scheduler, sparse emulator, dynamics, data
// plane, scenario install, gateway.
func (w *workerState) setup(asm *wire.ChunkAssembler, udp *net.UDPConn, tcpLn net.Listener) error {
	secs, err := asm.Require(wire.SecConfig, wire.SecView, wire.SecWorld, wire.SecDynamics)
	if err != nil {
		return fmt.Errorf("fednet: setup: %w", err)
	}
	if err := w.decodeConfig(secs[wire.SecConfig]); err != nil {
		return err
	}
	cfg := &w.cfg
	cores := cfg.Cores
	view, err := wire.DecodeShardView(secs[wire.SecView])
	if err != nil {
		return fmt.Errorf("fednet: setup view: %w", err)
	}
	if view.Shard != cfg.Shard || view.Cores != cores {
		return fmt.Errorf("fednet: view is for shard %d of %d, setup says %d of %d", view.Shard, view.Cores, cfg.Shard, cores)
	}
	world, err := wire.DecodeWorld(secs[wire.SecWorld])
	if err != nil {
		return fmt.Errorf("fednet: setup world: %w", err)
	}
	var dyn *dynamics.Spec
	if dynBin := secs[wire.SecDynamics]; len(dynBin) > 0 {
		if dyn, err = dynamics.Decode(dynBin); err != nil {
			return fmt.Errorf("fednet: setup dynamics: %w", err)
		}
	}
	g, err := view.Skeleton()
	if err != nil {
		return fmt.Errorf("fednet: setup skeleton: %w", err)
	}
	// Dense owner vector over the global pipe ID space; -1 marks pipes
	// outside the view, which the sparse emulator never materializes.
	ownerDense := make([]int, view.NumLinks)
	for i := range ownerDense {
		ownerDense[i] = -1
	}
	for i, l := range view.Links {
		ownerDense[l.ID] = int(view.LinkOwner[i])
	}
	pod := bind.NewPOD(ownerDense, cores)

	numVNs := len(world.VNHome)
	b := &bind.Binding{
		VNHome:   make([]topology.NodeID, numVNs),
		VNOfNode: make([]pipes.VN, view.NumNodes),
		EdgeOf:   make([]int, numVNs),
	}
	for i := range b.VNOfNode {
		b.VNOfNode[i] = -1
	}
	homes := make([]int, numVNs)
	for v := range world.VNHome {
		n := world.VNHome[v]
		if int(n) >= view.NumNodes {
			return fmt.Errorf("fednet: world maps VN %d to node %d, view has %d nodes", v, n, view.NumNodes)
		}
		if h := world.Homes[v]; int(h) >= cores {
			return fmt.Errorf("fednet: world homes VN %d on shard %d of %d", v, h, cores)
		}
		b.VNHome[v] = topology.NodeID(n)
		b.VNOfNode[n] = pipes.VN(v)
		homes[v] = int(world.Homes[v])
	}
	// Edge/core multiplexing mirrors bind.Bind on the same inputs.
	edges := cfg.EdgeNodes
	if edges <= 0 {
		edges = numVNs
	}
	for v := range b.EdgeOf {
		b.EdgeOf[v] = v % edges
	}
	b.CoreOf = make([]int, edges)
	for e := range b.CoreOf {
		b.CoreOf[e] = e % cores
	}

	table, err := bind.NewShardTable(g, view, b.VNHome, w.routeSeed, 0)
	if err != nil {
		return fmt.Errorf("fednet: shard table: %w", err)
	}
	// Preload the full reroute epoch schedule over the coordinator's exact
	// horizon: a faster peer can tunnel a packet pinned to an epoch this
	// shard's own dynamics replay has not reached yet, and Extend must be
	// able to serve it.
	downSets, err := dynamics.EnumerateReroutes(dyn, view.NumLinks, rerouteHorizon(vtime.Duration(cfg.RunForNs)))
	if err != nil {
		return fmt.Errorf("fednet: %w", err)
	}
	table.SetEpochs(downSets)
	b.Table = table
	w.table = table

	w.Sync = parcore.ComputeSyncPlan(g, b, pod, homes, cores, dyn.LatencyFloorFunc())[cfg.Shard]
	w.Sched = vtime.NewScheduler()
	w.Outbox = parcore.NewOutbox(cfg.Shard, cores, w.Sched)
	w.Emu, err = emucore.NewShardSparse(w.Sched, g, b, pod, cfg.Profile, cfg.Seed, cfg.Shard, homes, w.Outbox.Handoff)
	if err != nil {
		return fmt.Errorf("fednet: shard emulator: %w", err)
	}
	w.Applier = parcore.NewApplier(w.Sched, w.Emu)
	w.Prof.Shard = cfg.Shard
	if cfg.Trace {
		w.tracer = obs.NewTracer(cfg.Shard)
		w.Emu.Trace = w.tracer
	}
	if cfg.Metrics {
		w.metrics = obs.NewMetrics("worker", cfg.Shard)
		addr, closeFn, err := w.metrics.Serve("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("fednet: shard %d metrics: %w", cfg.Shard, err)
		}
		w.metricsAddr, w.closeMetrics = addr, closeFn
	}
	// Attach dynamics before the scenario installs its workload, so the
	// step events precede same-time workload events in the scheduler's
	// tie-break — identically to the sequential and in-process modes.
	eng, err := dynamics.Attach(w.Sched, w.Emu, dyn)
	if err != nil {
		return fmt.Errorf("fednet: dynamics: %w", err)
	}
	w.eng = eng
	if eng != nil {
		// A worker has no global matrix to rebuild; a reroute just advances
		// the table to the next preloaded epoch.
		eng.OnReroute = func([]topology.LinkID) { w.table.Advance() }
	}
	if cfg.CollectDeliveries {
		w.Emu.OnDeliver = func(_ *pipes.Packet, at vtime.Time) {
			w.deliveries = append(w.deliveries, at.Seconds())
		}
	}

	w.col = newCollector(cores)
	w.dp, err = openDataPlane(cfg.DataPlane, cfg.Shard, cfg.DataAddrs, udp, tcpLn, w.col, w.opts.Timeout, cfg.MaxDatagram, cfg.Recoverable, w.resume)
	if err != nil {
		return err
	}
	w.sent = make([]uint64, cores)
	if cfg.Recoverable {
		w.dp.sendLog = &workerRecovery{log: make([][][]byte, cores)}
		w.dp.onRecover = w.handleRecoverReq
	}
	// Readers start only now, with the recovery hook wired: an inbound frame
	// must never race the wiring above.
	w.dp.start()
	if w.resume {
		// Everything the fleet already exchanged this run must be
		// re-delivered here: mark every inbound channel lenient (the resent
		// logs overlap whatever stale datagrams are still in flight) and ask
		// each live peer for its full send log. On the UDP plane the request
		// frames' source address doubles as this worker's new endpoint.
		for j := 0; j < cores; j++ {
			if j != cfg.Shard {
				w.col.reset(j)
			}
		}
		if err := w.dp.recoverBroadcast(); err != nil {
			return err
		}
	}

	w.env = &WorkerEnv{
		Shard: cfg.Shard, Cores: cores,
		Graph: g, Binding: b,
		Sched: w.Sched, Emu: w.Emu,
		homes: homes,
		hosts: map[pipes.VN]*netstack.Host{},
	}
	scen, err := lookupScenario(cfg.Scenario)
	if err != nil {
		return err
	}
	w.report, err = scen.Install(w.env, cfg.Params)
	if err != nil {
		return fmt.Errorf("fednet: scenario %q install: %w", cfg.Scenario, err)
	}
	// The gateway lease: bind a real socket only if this shard homes at
	// least one mapped ingress VN (the gateway opens after the scenario so
	// the scenario's own ports are already claimed).
	if cfg.Edge != nil && cfg.Edge.HomedMaps(w.env.Homed) > 0 {
		w.gw, err = edge.NewGateway(*cfg.Edge, w.env.Homed, w.env.NewHost, w.Sched)
		if err != nil {
			return fmt.Errorf("fednet: shard %d gateway: %w", cfg.Shard, err)
		}
	}
	return nil
}

// routeSeed is the worker's bind.SeedFunc: one TRouteReq/TRouteResp round
// trip on the control conn. The coordinator serves the request inline from
// whichever read it is blocked in, and a worker only pages routes while the
// coordinator awaits its next protocol reply — the setup ack while the
// scenario installs, TStepDone inside Shard.Step, where every flow injects,
// a gateway's admitted ingress included (Admit only schedules the send) — so
// the RPC cannot deadlock.
func (w *workerState) routeSeed(epoch int32, target topology.NodeID) ([]bind.Dist, error) {
	if err := w.send(wire.TRouteReq, wire.RouteReq{Epoch: epoch, Target: int32(target)}.Encode()); err != nil {
		return nil, err
	}
	typ, body, err := w.readControl()
	if err != nil {
		return nil, err
	}
	if typ != wire.TRouteResp {
		return nil, fmt.Errorf("fednet: expected route resp, got frame type %d", typ)
	}
	m, err := wire.DecodeRouteResp(body)
	if err != nil {
		return nil, err
	}
	if m.Epoch != epoch || topology.NodeID(m.Target) != target {
		return nil, fmt.Errorf("fednet: route resp for epoch %d node %d, asked for %d/%d", m.Epoch, m.Target, epoch, target)
	}
	return m.Dists, nil
}

// dataLink is the worker's parcore.Link: the data plane under Shard.Step.
type dataLink struct{ w *workerState }

// Send implements parcore.Sender: one batch frame sequence per (flush,
// peer), messages stamped with dense channel sequences, the cumulative
// counters the barrier accounting runs on updated per message.
func (l dataLink) Send(j int, msgs []parcore.Msg) error {
	w := l.w
	if err := w.dp.sendBatch(j, msgs, w.sent[j]+1); err != nil {
		return err
	}
	w.sent[j] += uint64(len(msgs))
	// The descriptors are on the wire; recycle them into the shard's pool.
	for _, m := range msgs {
		w.Emu.ReleasePacket(m.Pkt)
	}
	return nil
}

// Recv implements parcore.Link: block until the step's channel prefixes
// have arrived, then grow each tunneled packet's route segment through this
// shard's region under the packet's pinned reroute epoch (bind.ShardTable
// route segments end at the first foreign pipe), so the step's bounds price
// the route the packet will actually take.
func (l dataLink) Recv() ([]parcore.Msg, error) {
	w := l.w
	msgs, err := w.col.wait(w.expect, w.opts.Timeout)
	if err != nil {
		return nil, err
	}
	for _, m := range msgs {
		if m.Pid < 0 || m.Pkt == nil {
			continue // delivery completion, not a tunneled enqueue
		}
		r, err := w.table.Extend(bind.Route(m.Pkt.Route), m.Pkt.Epoch, m.Pkt.Dst)
		if err != nil {
			return nil, fmt.Errorf("fednet: shard %d: %w", w.cfg.Shard, err)
		}
		m.Pkt.Route = r
	}
	return msgs, nil
}

// serve is the barrier service loop, the worker half of the socket
// Transport the coordinator drives.
func (w *workerState) serve() error {
	for {
		typ, body, err := w.readControl()
		if err != nil {
			return err
		}
		switch typ {
		case wire.TStep:
			w.stepsSeen++
			if w.failAt > 0 && w.stepsSeen == w.failAt {
				// Injected fault: die the way a crashed process would — no
				// error frame, no teardown, a distinctive exit status.
				os.Exit(FaultExitCode)
			}
			if err := w.step(body); err != nil {
				return err
			}
		case wire.TFail:
			// Arm the fault injection; no reply — the directive rides
			// between protocol rounds.
			m, err := wire.DecodeFail(body)
			if err != nil {
				return err
			}
			w.failAt = int(m.Round)
		case wire.TFinish:
			return w.finish()
		default:
			return fmt.Errorf("fednet: unexpected control frame type %d", typ)
		}
	}
}

// step serves one TStep round: Shard.Step over the data plane, then the
// counts and post-step bounds in one TStepDone.
func (w *workerState) step(body []byte) error {
	m, err := wire.DecodeStep(body)
	if err != nil {
		return err
	}
	w.expect = m.Expect
	if w.gw != nil {
		// Real-world arrivals enter virtual time ahead of the step, stamped no
		// earlier than the round's floor: they cannot fire inside it and are
		// in the scheduler when its bounds are taken.
		w.gw.Admit(vtime.Time(m.Floor))
	}
	rep, err := w.Step(parcore.Cmd{Grant: vtime.Time(m.Grant), Drain: m.Drain}, dataLink{w})
	if err != nil {
		return err
	}
	if m.Drain {
		w.metrics.AddSerialRounds(1)
	} else if m.Grant >= 0 {
		w.metrics.AddWindows(1)
	}
	w.updateMetrics()
	sd := wire.StepDone{
		Counts:     wire.Counts{Now: int64(w.Sched.Now()), Sent: append([]uint64(nil), w.sent...)},
		Progressed: rep.Progressed,
		Next:       int64(rep.Next),
		Safe:       int64(rep.Safe),
		SafeTo:     timesToI64(rep.SafeTo),
	}
	if err := w.send(wire.TStepDone, sd.Encode()); err != nil {
		return err
	}
	if m.Ckpt {
		// Checkpoint barrier: push the canonical state digest right after
		// the step reply. The coordinator stores the blob and byte-compares
		// it against a recovering replay's.
		ck, err := w.buildCheckpoint()
		if err != nil {
			return err
		}
		return w.send(wire.TCheckpoint, ck.Encode())
	}
	return nil
}

// timesToI64 converts a SafeTo vector to its wire form (nil stays nil).
func timesToI64(ts []vtime.Time) []int64 {
	if ts == nil {
		return nil
	}
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = int64(t)
	}
	return out
}

// updateMetrics refreshes the live endpoint from worker state. Called only
// at barrier boundaries on the serve goroutine: the data-plane counters are
// plain fields owned by that goroutine, so this is the one safe place to
// snapshot them into the endpoint's atomics.
func (w *workerState) updateMetrics() {
	if w.metrics == nil {
		return
	}
	w.metrics.SetVTime(int64(w.Sched.Now()))
	w.metrics.SetPlane(w.dp.counters())
	if w.gw != nil {
		st := w.gw.Stats()
		w.metrics.SetGateway(st.IngressPkts, st.IngressBytes, st.EgressPkts, st.EgressBytes,
			st.Oversize+st.Unmapped+st.QueueDrops)
	}
}

// finish builds and sends the worker's final report, preceded by any
// recorded trace events streamed as TTrace chunks.
func (w *workerState) finish() error {
	frames, bytes := w.dp.counters()
	rep := WorkerReport{
		Shard:             w.cfg.Shard,
		Totals:            w.Emu.Totals(),
		Accuracy:          w.Emu.Accuracy,
		NowNs:             int64(w.Sched.Now()),
		Frames:            frames,
		BytesOnWire:       bytes,
		SetupBytes:        w.setupBytes,
		StartupWallNs:     w.startupWallNs,
		PeakRSSBytes:      peakRSSBytes(),
		MaterializedPipes: w.Emu.MaterializedPipes(),
		RouteRPCs:         w.table.SeedRPCs,
		Deliveries:        w.deliveries,
		PipeDrops:         make([]uint64, w.Emu.NumPipes()),
		Profile:           w.Prof,
	}
	for i := range rep.PipeDrops {
		// Unmaterialized slots (sparse shard views) have no pipe to ask.
		if p := w.Emu.Pipe(pipes.ID(i)); p != nil {
			rep.PipeDrops[i] = p.TotalDrops()
		}
	}
	rep.DropsByReason = w.Emu.DropsByReason()
	cs := w.Emu.CoreStats(w.cfg.Shard)
	rep.TunnelsIn, rep.TunnelsOut = cs.TunnelsIn, cs.TunnelsOut
	if w.gw != nil {
		st := w.gw.Stats()
		rep.Edge = &st
		// Fold the gateway's rejections into the unified drop taxonomy.
		rep.DropsByReason[pipes.DropOversize] += st.Oversize
		rep.DropsByReason[pipes.DropGatewayReject] += st.Unmapped + st.QueueDrops
	}
	if w.report != nil {
		rep.Scenario = w.report()
	}
	if w.tracer != nil {
		evs := w.tracer.Events()
		for len(evs) > 0 {
			n := len(evs)
			if n > traceChunkEvents {
				n = traceChunkEvents
			}
			if err := w.send(wire.TTrace, encodeTraceChunk(evs[:n])); err != nil {
				return err
			}
			evs = evs[n:]
		}
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return w.send(wire.TReport, body)
}

// peakRSSBytes reads the process's high-water resident set (VmHWM) from
// procfs; 0 where unavailable.
func peakRSSBytes() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// shardPath names this shard's copy of a per-worker artifact; "" stays "".
func (w *workerState) shardPath(path string) string {
	if path == "" {
		return ""
	}
	return fmt.Sprintf("%s.shard%d", path, w.cfg.Shard)
}

// MaybeRunWorker turns the current process into a federation worker when
// the spawn environment variable is set, and never returns in that case.
// Binaries that can host a worker (cmd/modelnet, cmd/mnbench, test
// binaries via TestMain) call it before doing anything else; SpawnWorkers
// relies on it to re-exec the running binary as its worker fleet.
func MaybeRunWorker() {
	join := os.Getenv(EnvJoin)
	if join == "" {
		return
	}
	err := Worker(join, WorkerOptions{
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		CPUProfile: os.Getenv(EnvCPUProfile),
		MemProfile: os.Getenv(EnvMemProfile),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fednet worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
