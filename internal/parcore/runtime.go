package parcore

// The in-process deployment: Runtime hosts the shards as goroutines and
// implements Transport by handing each a command over a channel; a flushed
// batch moves to its target as a slice.

import (
	"fmt"

	"modelnet/internal/assign"
	"modelnet/internal/bind"
	"modelnet/internal/dynamics"
	"modelnet/internal/emucore"
	"modelnet/internal/obs"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// worker is one shard plus its in-process Link: the goroutine that steps
// it and the mail slots its peers flush into.
type worker struct {
	Shard
	r      *Runtime
	idx    int
	tracer *obs.Tracer

	// mail[p][i] is the batch shard i flushed toward this shard in a round
	// of parity p. A round's senders write the slots of the runtime's
	// current parity while this shard reads and clears the other parity's —
	// last round's — so no slot is ever shared within a round, and a fast
	// peer's flush cannot leak into the round it was sent in.
	mail  [2][][]Msg
	inbox []Msg

	cmd  chan Cmd
	done chan struct{}
	rep  Report
	err  error
}

// Send implements Sender on the shard's goroutine: the batch moves by
// reference (Outbox.Flush gave it up).
func (w *worker) Send(target int, msgs []Msg) error {
	w.r.workers[target].mail[w.r.parity][w.idx] = msgs
	return nil
}

// Recv implements Link: gather what the peers flushed last round.
func (w *worker) Recv() ([]Msg, error) {
	w.inbox = w.inbox[:0]
	for i, msgs := range w.mail[w.r.parity^1] {
		w.inbox = append(w.inbox, msgs...)
		w.mail[w.r.parity^1][i] = nil
	}
	return w.inbox, nil
}

// SyncStats describe how a run synchronized.
type SyncStats struct {
	Windows      uint64 // parallel windows executed
	SerialRounds uint64 // serial drain rounds (zero/exhausted lookahead)
	Messages     uint64 // cross-shard messages exchanged
	// Effective per-window grant spans: how far each shard's window bound
	// actually moved per release; the spread between a shard next to the
	// action and one far from it is the whole point of per-shard grants.
	// One sample per (window, shard) that advanced.
	GrantCount uint64
	GrantSumNs uint64
	GrantMinNs int64
	GrantMaxNs int64
	// Profile is the loop's wall-clock breakdown (compute vs barrier-wait
	// vs serial drain vs pacing idle vs flush).
	Profile obs.DriveProfile
}

// noteGrant records one shard's effective window grant span.
func (s *SyncStats) noteGrant(span vtime.Duration) {
	if span <= 0 {
		return
	}
	if s.GrantCount == 0 || int64(span) < s.GrantMinNs {
		s.GrantMinNs = int64(span)
	}
	if int64(span) > s.GrantMaxNs {
		s.GrantMaxNs = int64(span)
	}
	s.GrantCount++
	s.GrantSumNs += uint64(span)
}

// GrantMin reports the smallest effective window grant (0 when none).
func (s SyncStats) GrantMin() vtime.Duration {
	if s.GrantCount == 0 {
		return 0
	}
	return vtime.Duration(s.GrantMinNs)
}

// GrantMax reports the largest effective window grant (0 when none).
func (s SyncStats) GrantMax() vtime.Duration {
	if s.GrantCount == 0 {
		return 0
	}
	return vtime.Duration(s.GrantMaxNs)
}

// GrantMean reports the mean effective window grant (0 when none).
func (s SyncStats) GrantMean() vtime.Duration {
	if s.GrantCount == 0 {
		return 0
	}
	return vtime.Duration(s.GrantSumNs / s.GrantCount)
}

// Runtime is a parallel core cluster ready to run.
type Runtime struct {
	graph   *topology.Graph
	binding *bind.Binding
	pod     *bind.POD
	workers []*worker
	homes   []int              // VN -> shard
	chain   [][]vtime.Duration // reaction-chain matrix
	now     vtime.Time
	stats   SyncStats
	// parity selects the mail slots the current round's flushes land in;
	// the driver flips it between rounds, while every shard is parked.
	parity int
}

// Config assembles a Runtime.
type Config struct {
	Graph      *topology.Graph    // distilled topology
	Binding    *bind.Binding      // shared binding (route table, VN homes)
	Assignment *assign.Assignment // pipe -> core ownership
	Profile    emucore.Profile
	Seed       int64
	// NewTable, when non-nil, builds a private route table per shard.
	// Required when the shared table mutates on lookup (the LRU route
	// cache); leave nil for the read-only matrix.
	NewTable func() bind.Table
	// Dynamics, when non-nil, is attached to every shard: each shard
	// replays the full spec against its own (complete) pipe set, exactly
	// as the sequential mode does, and shard lookahead is derived from the
	// spec's per-link latency floor.
	Dynamics *dynamics.Spec
	// Trace enables per-shard packet tracing (merge with Runtime.Trace).
	Trace bool
}

// New builds the parallel runtime: one shard emulator per assignment core,
// each on a fresh scheduler.
func New(cfg Config) (*Runtime, error) {
	k := cfg.Assignment.Cores
	if k < 2 {
		return nil, fmt.Errorf("parcore: need at least 2 cores, got %d", k)
	}
	g, b := cfg.Graph, cfg.Binding
	pod := cfg.Assignment.POD()
	r := &Runtime{graph: g, binding: b, pod: pod}
	r.homes = Homes(g, b, pod, k)

	r.workers = make([]*worker, k)
	for i := range r.workers {
		w := &worker{r: r, idx: i, cmd: make(chan Cmd), done: make(chan struct{})}
		w.mail[0], w.mail[1] = make([][]Msg, k), make([][]Msg, k)
		w.Sched = vtime.NewScheduler()
		w.Outbox = NewOutbox(i, k, w.Sched)
		bi := b
		// A shard needs a private binding when the table mutates: on
		// lookup (LRU cache) or via dynamics reroutes (SetTable swaps the
		// binding's table in place per shard).
		if cfg.NewTable != nil || (cfg.Dynamics != nil && cfg.Dynamics.Reroute) {
			cp := *b
			if cfg.NewTable != nil {
				cp.Table = cfg.NewTable()
			}
			bi = &cp
		}
		emu, err := emucore.NewShard(w.Sched, g, bi, pod, cfg.Profile, cfg.Seed, i, r.homes, w.Outbox.Handoff)
		if err != nil {
			return nil, fmt.Errorf("parcore: shard %d: %w", i, err)
		}
		w.Prof.Shard = i
		if cfg.Trace {
			w.tracer = obs.NewTracer(i)
			emu.Trace = w.tracer
		}
		if _, err := dynamics.Attach(w.Sched, emu, cfg.Dynamics); err != nil {
			return nil, fmt.Errorf("parcore: shard %d: %w", i, err)
		}
		w.Emu = emu
		w.Applier = NewApplier(w.Sched, emu)
		r.workers[i] = w
	}
	syncs := ComputeSyncPlan(g, b, pod, r.homes, k, cfg.Dynamics.LatencyFloorFunc())
	r.chain = ChainMatrix(syncs)
	for i, s := range syncs {
		r.workers[i].Sync = s
	}
	return r, nil
}

// Cores reports the number of shards.
func (r *Runtime) Cores() int { return len(r.workers) }

// HomeOf reports the shard a VN's netstack lives on.
func (r *Runtime) HomeOf(vn pipes.VN) int { return r.homes[vn] }

// SchedOf returns the scheduler driving a VN's home shard; hosts and
// application timers for that VN must be built on it.
func (r *Runtime) SchedOf(vn pipes.VN) *vtime.Scheduler { return r.workers[r.homes[vn]].Sched }

// EmuOf returns the shard emulator a VN injects into.
func (r *Runtime) EmuOf(vn pipes.VN) *emucore.Emulator { return r.workers[r.homes[vn]].Emu }

// ShardEmu returns shard i's emulator (counters, per-core stats).
func (r *Runtime) ShardEmu(i int) *emucore.Emulator { return r.workers[i].Emu }

// RegisterVN installs a delivery callback on the VN's home shard.
func (r *Runtime) RegisterVN(vn pipes.VN, fn emucore.DeliverFunc) {
	r.workers[r.homes[vn]].Emu.RegisterVN(vn, fn)
}

// SetDeliverHook installs fn as every shard's OnDeliver hook. Shards run
// concurrently, so fn must be safe for concurrent use.
func (r *Runtime) SetDeliverHook(fn func(pkt *pipes.Packet, at vtime.Time)) {
	for _, w := range r.workers {
		w.Emu.OnDeliver = fn
	}
}

// Stats reports synchronization counters for the run so far.
func (r *Runtime) Stats() SyncStats { return r.stats }

// ShardProfiles snapshots every shard's wall-clock/lookahead profile.
func (r *Runtime) ShardProfiles() []obs.ShardProfile {
	out := make([]obs.ShardProfile, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.Prof
	}
	return out
}

// Trace merges the per-shard packet tracers into one deterministic trace,
// or returns nil when the runtime was built without Config.Trace.
func (r *Runtime) Trace() *obs.Trace {
	tracers := make([]*obs.Tracer, 0, len(r.workers))
	for _, w := range r.workers {
		if w.tracer != nil {
			tracers = append(tracers, w.tracer)
		}
	}
	if len(tracers) == 0 {
		return nil
	}
	return obs.Merge(tracers...)
}

// Now reports the cluster's virtual time: the deadline of the last run, or
// the latest shard clock after RunToCompletion.
func (r *Runtime) Now() vtime.Time { return r.now }

// Totals sums the conservation counters over all shards.
func (r *Runtime) Totals() emucore.Totals {
	var t emucore.Totals
	for _, w := range r.workers {
		wt := w.Emu.Totals()
		t.Injected += wt.Injected
		t.Delivered += wt.Delivered
		t.NoRoute += wt.NoRoute
		t.PhysDrops += wt.PhysDrops
		t.VirtualDrops += wt.VirtualDrops
		t.InFlight += wt.InFlight
	}
	return t
}

// Accuracy merges the per-shard delay-accuracy trackers.
func (r *Runtime) Accuracy() emucore.Accuracy {
	var a emucore.Accuracy
	for _, w := range r.workers {
		a.Merge(w.Emu.Accuracy)
	}
	return a
}

// RunFor advances the cluster by d, firing all due events.
func (r *Runtime) RunFor(d vtime.Duration) { r.RunUntil(r.now.Add(d)) }

// Run fires events until none remain anywhere in the cluster.
func (r *Runtime) Run() { r.RunUntil(vtime.Forever) }

// RunUntil advances every shard to the deadline, firing all events with
// timestamps at or before it, by handing the in-process transport to the
// conservative synchronization loop (Drive).
func (r *Runtime) RunUntil(deadline vtime.Time) {
	for _, w := range r.workers {
		w := w
		go func() {
			for c := range w.cmd {
				w.rep, w.err = w.Step(c, w)
				w.done <- struct{}{}
			}
		}()
	}
	defer func() {
		for _, w := range r.workers {
			close(w.cmd)
			w.cmd = make(chan Cmd)
		}
	}()

	if err := Drive(inproc{r}, &r.stats, deadline, DriveOpts{Chain: r.chain}); err != nil {
		// The in-process transport only errors on an EOT violation, which
		// is a runtime invariant breach, not an I/O condition.
		panic(err)
	}
	if deadline == vtime.Forever {
		for _, w := range r.workers {
			if w.Sched.Now() > r.now {
				r.now = w.Sched.Now()
			}
		}
		return
	}
	r.now = deadline
}

// inproc is the in-process Transport: shards are this Runtime's worker
// goroutines.
type inproc struct{ r *Runtime }

// Cores implements Transport.
func (t inproc) Cores() int { return len(t.r.workers) }

// Step implements Transport. A rendezvous costs this transport two channel
// operations per shard, so it leaves nothing in flight: when the round's
// flushes put messages in the mail slots, a bounds-only round lands them on
// their receivers and the reports carry bounds that have seen every message
// sent so far — Drive has nothing to settle for. (A federation's rendezvous is
// a TCP round trip; it reports the stale bounds and the in-flight counts
// instead.)
func (t inproc) Step(cmds []Cmd) ([]Report, error) {
	reps, err := t.r.round(cmds)
	if err != nil {
		return nil, err
	}
	inflight := false
	for _, rep := range reps {
		inflight = inflight || rep.Inflight > 0
	}
	if !inflight {
		return reps, nil
	}
	land := make([]Cmd, len(cmds))
	for i := range land {
		land[i].Grant = -1
	}
	landed, err := t.r.round(land)
	if err != nil {
		return nil, err
	}
	for i := range reps {
		reps[i].Bounds, reps[i].Inflight = landed[i].Bounds, 0
	}
	return reps, nil
}

// round hands every shard its command and waits for all of them.
func (r *Runtime) round(cmds []Cmd) ([]Report, error) {
	for i, w := range r.workers {
		w.cmd <- cmds[i]
	}
	for _, w := range r.workers {
		<-w.done
	}
	reps := make([]Report, len(r.workers))
	for i, w := range r.workers {
		if w.err != nil {
			return nil, w.err
		}
		reps[i] = w.rep
	}
	r.closeRound(reps)
	return reps, nil
}

// closeRound counts what the round's flushes left in the mail slots and
// flips the parity, so the next round receives it.
func (r *Runtime) closeRound(reps []Report) {
	for i, w := range r.workers {
		for sender, msgs := range w.mail[r.parity] {
			reps[sender].Sent += uint64(len(msgs))
			reps[i].Inflight += uint64(len(msgs))
		}
	}
	r.parity ^= 1
}
