package dynamics

import (
	"fmt"
	"sort"

	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// Unchanged is the sentinel for "leave this parameter as it is". Any
// negative Bandwidth, Latency, or Loss means unchanged; Unchanged is the
// canonical value parsers and codecs use.
const Unchanged = -1

// DefaultRerouteDelay is the reconvergence delay applied between a link
// state change and the route recomputation when a Spec does not set one —
// roughly a triggered-update round of the distance-vector protocol.
const DefaultRerouteDelay = 50 * vtime.Millisecond

// Step is one scheduled parameter change on a link. Zero and positive
// field values are applied; negative ones (Unchanged) are kept. A zero
// Bandwidth means infinite bandwidth (pipes.Params semantics). Build steps
// with At() so unset fields default to Unchanged rather than zero.
type Step struct {
	At        vtime.Duration // offset from the profile's cycle start
	Bandwidth float64        // bits/second; 0 = infinite, negative = keep
	Latency   vtime.Duration // negative = keep
	Loss      float64        // [0,1); negative = keep
	Down      bool           // fail the link
	Up        bool           // recover the link
}

// At returns a Step at the given offset with every parameter Unchanged.
func At(at vtime.Duration) Step {
	return Step{At: at, Bandwidth: Unchanged, Latency: Unchanged, Loss: Unchanged}
}

// Profile is one link's timeline: Steps sorted by At, optionally replayed
// cyclically with period Loop (0 = play once).
type Profile struct {
	Link  int            // pipe / distilled-link ID
	Steps []Step         // sorted by At, non-decreasing
	Loop  vtime.Duration // cycle period; 0 = no loop; steps must have At < Loop
}

// Spec is a complete dynamics description for one emulation. It is a pure
// value: the coordinator ships it bit-exact to every federated worker
// (dynamics.Encode, shipped as its own setup-frame blob), and every
// execution mode attaches it identically.
type Spec struct {
	Profiles []Profile
	// Reroute recomputes routes RerouteDelay after every Down/Up step, so
	// traffic deterministically routes around failed links.
	Reroute bool
	// RerouteDelay is the virtual reconvergence delay; 0 means
	// DefaultRerouteDelay.
	RerouteDelay vtime.Duration
}

// rerouteDelay resolves the effective delay.
func (s *Spec) rerouteDelay() vtime.Duration {
	if s.RerouteDelay <= 0 {
		return DefaultRerouteDelay
	}
	return s.RerouteDelay
}

// Validate checks the spec's structural invariants. numLinks bounds the
// Link fields when positive; pass 0 when the topology is not known yet
// (the wire decoder re-validates, the engine validates against the
// emulator's pipe count at Attach).
func (s *Spec) Validate(numLinks int) error {
	if s == nil {
		return nil
	}
	if s.RerouteDelay < 0 {
		return fmt.Errorf("dynamics: negative reroute delay %v", s.RerouteDelay)
	}
	for i := range s.Profiles {
		p := &s.Profiles[i]
		if p.Link < 0 {
			return fmt.Errorf("dynamics: profile %d has negative link %d", i, p.Link)
		}
		if numLinks > 0 && p.Link >= numLinks {
			return fmt.Errorf("dynamics: profile %d link %d outside %d links", i, p.Link, numLinks)
		}
		if p.Loop < 0 {
			return fmt.Errorf("dynamics: profile %d has negative loop %v", i, p.Loop)
		}
		if len(p.Steps) == 0 {
			return fmt.Errorf("dynamics: profile %d (link %d) has no steps", i, p.Link)
		}
		prev := vtime.Duration(0)
		for j, st := range p.Steps {
			if st.At < 0 {
				return fmt.Errorf("dynamics: link %d step %d at negative time %v", p.Link, j, st.At)
			}
			if st.At < prev {
				return fmt.Errorf("dynamics: link %d steps not sorted at index %d", p.Link, j)
			}
			prev = st.At
			if p.Loop > 0 && st.At >= p.Loop {
				return fmt.Errorf("dynamics: link %d step %d at %v outside loop period %v", p.Link, j, st.At, p.Loop)
			}
			if st.Loss >= 1 || st.Loss != st.Loss { // reject ≥1 and NaN
				return fmt.Errorf("dynamics: link %d step %d loss %v outside [0,1)", p.Link, j, st.Loss)
			}
			if st.Bandwidth != st.Bandwidth {
				return fmt.Errorf("dynamics: link %d step %d bandwidth is NaN", p.Link, j)
			}
			if st.Down && st.Up {
				return fmt.Errorf("dynamics: link %d step %d is both down and up", p.Link, j)
			}
		}
	}
	return nil
}

// FloorLatency returns the minimum latency the link can ever take under the
// spec: the smaller of initial and every explicit latency step in any of
// the link's profiles. Conservative synchronization must use this floor —
// not the initial latency — as the link's lookahead contribution, or a
// mid-run latency drop could let a cross-shard message arrive inside an
// already-released window.
func (s *Spec) FloorLatency(link topology.LinkID, initial vtime.Duration) vtime.Duration {
	min := initial
	if s == nil {
		return min
	}
	for i := range s.Profiles {
		if topology.LinkID(s.Profiles[i].Link) != link {
			continue
		}
		for _, st := range s.Profiles[i].Steps {
			if st.Latency >= 0 && st.Latency < min {
				min = st.Latency
			}
		}
	}
	return min
}

// LatencyFloorFunc adapts FloorLatency to parcore.ComputeSyncPlan's floor
// callback. A nil spec yields nil (no flooring).
func (s *Spec) LatencyFloorFunc() func(topology.LinkID, vtime.Duration) vtime.Duration {
	if s == nil {
		return nil
	}
	return s.FloorLatency
}

// Engine is a Spec attached to one emulator: all link-state events live on
// that emulator's scheduler. Every shard of a parallel or federated run
// attaches its own Engine over the same Spec; each applies every step to
// its own (complete) pipe set, which is exactly what the sequential mode
// does, so all modes agree.
type Engine struct {
	spec  *Spec
	sched *vtime.Scheduler
	emu   *emucore.Emulator // nil in replay mode (EnumerateReroutes)
	down  map[topology.LinkID]bool

	// onReroute, when set, sees every reroute's sorted down set before the
	// emulator does: the replay behind EnumerateReroutes, which has no
	// emulator, records the per-epoch down sets with it. The replay's
	// schedule and tie-order of reroute events are the live engine's, so
	// epoch numbering agrees across all parties by construction.
	onReroute func(down []topology.LinkID)

	// Applied counts steps fired and Reroutes route recomputations — cheap
	// cross-mode determinism probes.
	Applied  uint64
	Reroutes uint64

	// Cursor tracking for Snapshot: the current cycle base per profile and
	// the fire times of scheduled-but-unfired reroutes (sorted ascending;
	// a reroute can outlive its cycle when the reconvergence delay spans a
	// loop boundary). nil bases = tracking off (EnumerateReroutes replays).
	bases           []vtime.Time
	pendingReroutes []vtime.Time
}

// Attach validates the spec against the emulator's pipe set and schedules
// the first cycle of every profile. Call it right after the emulator is
// created, before any workload is installed, so dynamics events win the
// scheduler's insertion-order tie-break against same-time workload events
// in every execution mode. A nil spec attaches nothing and returns nil.
func Attach(sched *vtime.Scheduler, emu *emucore.Emulator, spec *Spec) (*Engine, error) {
	if spec == nil {
		return nil, nil
	}
	if err := spec.Validate(emu.NumPipes()); err != nil {
		return nil, err
	}
	e := &Engine{spec: spec, sched: sched, emu: emu, down: map[topology.LinkID]bool{}}
	e.bases = make([]vtime.Time, len(spec.Profiles))
	for i := range spec.Profiles {
		e.scheduleCycle(i, sched.Now())
	}
	return e, nil
}

// scheduleCycle schedules one replay of p starting at base, plus — for a
// looping profile — a rollover event at the next cycle boundary that
// schedules the cycle after it. Reroutes are scheduled here too (their
// times are static functions of the spec), so their tie-order against
// everything else is fixed at attach time.
func (e *Engine) scheduleCycle(pi int, base vtime.Time) {
	p := &e.spec.Profiles[pi]
	if e.bases != nil {
		e.bases[pi] = base
	}
	for _, st := range p.Steps {
		st := st
		at := base.Add(st.At)
		e.sched.At(at, func() { e.apply(p.Link, st) })
		if (st.Down || st.Up) && e.spec.Reroute {
			rt := at.Add(e.spec.rerouteDelay())
			e.trackReroute(rt)
			e.sched.At(rt, e.reroute)
		}
	}
	if p.Loop > 0 {
		next := base.Add(p.Loop)
		e.sched.At(next, func() { e.scheduleCycle(pi, next) })
	}
}

// trackReroute records a scheduled reroute's fire time, keeping the pending
// list sorted (appends arrive per-profile, not in global time order).
func (e *Engine) trackReroute(rt vtime.Time) {
	if e.bases == nil {
		return
	}
	i := sort.Search(len(e.pendingReroutes), func(i int) bool { return e.pendingReroutes[i] > rt })
	e.pendingReroutes = append(e.pendingReroutes, 0)
	copy(e.pendingReroutes[i+1:], e.pendingReroutes[i:])
	e.pendingReroutes[i] = rt
}

// apply installs one step on its pipe, keeping Unchanged fields. Down-state
// tracking and tracing always run; the pipe mutation is skipped when the
// slot is not materialized (sparse shard views hold only owned pipes) or in
// replay mode — the trace therefore stays byte-identical across full,
// sparse, and replayed execution.
func (e *Engine) apply(link int, st Step) {
	if st.Down {
		e.down[topology.LinkID(link)] = true
	}
	if st.Up {
		delete(e.down, topology.LinkID(link))
	}
	e.Applied++
	if e.emu == nil {
		return
	}
	id := pipes.ID(link)
	if p := e.emu.Pipe(id); p != nil {
		params := p.Params()
		if st.Bandwidth >= 0 {
			params.BandwidthBps = st.Bandwidth
		}
		if st.Latency >= 0 {
			params.Latency = st.Latency
		}
		if st.Loss >= 0 {
			params.LossRate = st.Loss
		}
		params.Down = (params.Down || st.Down) && !st.Up
		e.emu.SetPipeParams(id, params)
	}
	if e.emu.Shard() <= 0 {
		// Every shard applies every step; record it once, on the shard that
		// exists in all modes (the sequential emulator or shard 0), so the
		// trace stays mode-invariant.
		e.emu.Trace.DynStep(e.sched.Now(), link)
	}
}

// downList returns the sorted down-set, the canonical epoch description.
func (e *Engine) downList() []topology.LinkID {
	out := make([]topology.LinkID, 0, len(e.down))
	for lid := range e.down {
		out = append(out, lid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reroute moves the emulator's route table to its next epoch
// (Emulator.Reroute), in every mode, with every down link priced at
// bind.InfinityLatencySec. Destinations whose only paths traverse down links
// stay "reachable" at Infinity cost, so their traffic deterministically
// blackholes at the down pipe instead of failing route lookup; that is the
// unreachable-partition semantics.
func (e *Engine) reroute() {
	e.Reroutes++
	if e.bases != nil && len(e.pendingReroutes) > 0 {
		// Events fire in time order, so the front entry is this reroute.
		e.pendingReroutes = e.pendingReroutes[:copy(e.pendingReroutes, e.pendingReroutes[1:])]
	}
	if e.emu != nil && e.emu.Shard() <= 0 {
		e.emu.Trace.Reroute(e.sched.Now()) // once per mode, as in apply
	}
	down := e.downList()
	if e.onReroute != nil {
		e.onReroute(down)
	}
	if e.emu != nil {
		e.emu.Reroute(down)
	}
}

// MaxRerouteEpochs bounds EnumerateReroutes: a looping failure script
// schedules reroutes forever, and the coordinator's summary oracle keeps one
// down-set per epoch, so runs are capped at this many reroute epochs.
const MaxRerouteEpochs = 4096

// EnumerateReroutes replays the spec's failure/recovery schedule — no
// emulator, just the engine's event scheduling on a scratch virtual-time
// scheduler, with identical tie-breaks — and returns the down-set in force
// at each reroute epoch within the horizon: index 0 is the pristine
// pre-reroute world, index e the set after the e-th reroute fired. The
// result feeds the coordinator's bind.SummaryOracle so worker epoch numbers
// resolve to the exact graphs their own engines rerouted against. A spec
// whose schedule exceeds MaxRerouteEpochs epochs inside the horizon is
// rejected loudly.
func EnumerateReroutes(spec *Spec, numLinks int, horizon vtime.Duration) ([][]topology.LinkID, error) {
	sets := [][]topology.LinkID{nil}
	if spec == nil || !spec.Reroute {
		return sets, nil
	}
	if err := spec.Validate(numLinks); err != nil {
		return nil, err
	}
	sched := vtime.NewScheduler()
	e := &Engine{spec: spec, sched: sched, down: map[topology.LinkID]bool{}}
	e.onReroute = func(down []topology.LinkID) {
		sets = append(sets, down)
	}
	for i := range spec.Profiles {
		e.scheduleCycle(i, sched.Now())
	}
	limit := vtime.Time(0).Add(horizon)
	for sched.Pending() > 0 && sched.NextEventTime() <= limit {
		if len(sets) > MaxRerouteEpochs {
			return nil, fmt.Errorf("dynamics: failure script schedules more than %d reroute epochs within %v", MaxRerouteEpochs, horizon)
		}
		sched.Step()
	}
	return sets, nil
}
