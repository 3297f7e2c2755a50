// Package parcore is the parallel core-cluster runtime: it runs each
// emulated core router on its own goroutine with its own virtual-time
// scheduler, synchronized conservatively so that results are deterministic
// and — under an event-exact profile — identical to the sequential
// single-scheduler emulation.
//
// The paper's scalability argument (§3.3) is that emulation capacity grows
// with the number of core routers as long as cross-core transitions stay
// cheap. The sequential reproduction partitions pipes across cores but
// still drives everything from one scheduler, so extra cores buy nothing.
// Here the partition becomes real concurrency:
//
//   - Each shard is an emucore.NewShard emulator owning the pipes its core
//     was assigned (the POD), plus the netstack hosts of the VNs homed on
//     it. A VN's home is the core owning its access pipes, so injection and
//     delivery never cross cores.
//   - Cross-core packet transitions are explicit tunnel messages (§2.2
//     core-to-core tunnels) exchanged at synchronization barriers.
//   - Synchronization is conservative, in the null-message/time-window
//     style: all shards repeatedly agree on a horizon H no earlier than any
//     future tunnel message, then process their own events with timestamps
//     below H in parallel. The horizon is derived from each shard's next
//     event time plus its lookahead — the minimum latency of its cut pipes
//     (see assign.CutStats) — because a packet must spend that latency
//     inside a cut pipe before it can surface on a peer core.
//
// Under an ideal profile shards run eagerly (emucore.Eager): a handoff is
// emitted the moment its packet enters a cut pipe, timestamped with the
// pipe's exact future exit, so the horizon genuinely advances by the full
// lookahead each round instead of stalling on the next actual crossing.
//
// Determinism: barriers exchange messages in a canonical order (fire time,
// sender shard, sender sequence number), and each shard's window is a
// single-threaded deterministic event loop, so a run's outcome depends only
// on the seed — never on goroutine timing. Under an event-exact profile the
// outcome also matches the sequential mode packet-for-packet, except where
// two packets from different shards interact at the same pipe in the same
// nanosecond (the modes may then order them differently; counters of such
// ties are unaffected, per-packet attribution can differ). See DESIGN.md.
//
// The code has two halves. Shard.Step is what one shard does in a barrier
// round — receive and apply what peers sent in an earlier round, run through
// the grant, flush the outbox, report bounds — and it is the only place a
// parallel or federated run calls Applier.Apply, the scheduler's RunUntil
// or ShardBounds, and the only writer of the shard's wall-clock profile.
// Drive is the synchronization algebra over those reports, behind the
// one-verb Transport interface (Step: a round): it settles each shard's
// bounds for the messages the round left in flight toward it, derives the
// next grants, and repeats. Runtime is the in-process transport (shards as
// goroutines, a flushed batch moves to its target as a slice, and a round
// that flushed anything is followed by a bounds-only one that lands it, so
// nothing is ever left in flight) and internal/fednet implements the same
// contract over real sockets, one OS process per shard, one TStep/TStepDone
// exchange per round.
// DriveOpts.Pace slaves the loop to the wall clock (Pacing — the paper's
// 10 kHz-timer role), which is what lets live edge gateways (internal/edge)
// feed real traffic into a run whose emulated delays elapse in real time.
package parcore
