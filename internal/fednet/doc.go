// Package fednet is the multi-process core federation runtime: it runs each
// parcore shard in its own OS process — and hence, with remote workers, on
// its own machine — connected by real sockets, the deployment shape of the
// paper's core cluster (emulated core routers on separate physical machines
// exchanging cross-core packets as tunnel traffic).
//
// A federated run has one coordinator and Cores workers:
//
//   - The coordinator (Run) builds the target topology, distills it, and
//     partitions the pipes; it then distributes each worker's shard view,
//     the VN world map and the scenario over a TCP control plane, serves the
//     workers' demand-paged route summaries, and runs the same
//     conservative synchronization loop as the in-process runtime
//     (parcore.Drive) over a socket-backed parcore.Transport: a barrier
//     round is one TStep frame to every worker and one TStepDone back.
//   - Each worker (Worker, usually entered via the `modelnet core`
//     subcommand or the self-exec spawn helper) deterministically rebuilds
//     its shard — binding, parcore.NewShard over its owned pipes, homed VN
//     hosts, workload — from the distributed state, answers each TStep with
//     one parcore.Shard.Step (the same per-shard loop body the in-process
//     runtime runs), and exchanges cross-core tunnel messages with its
//     peers directly over a UDP (or TCP-fallback) data plane, always in
//     batch frames.
//
// The scheduler never learns whether its peer is a goroutine or a socket:
// parcore.Drive sees only the Transport, Shard.Step only its Link. That is
// what extends PR 1's determinism contract to federation — with the same
// seed, a 1-process sequential run, an N-goroutine parallel run, and an
// N-process federated run produce identical counters and delivery times
// (under an event-exact profile; see DESIGN.md §3 for the contract's scope).
//
// A federation can also open itself to the outside world: Options.Edge
// leases a live edge gateway (internal/edge) to the workers — real UDP
// sockets mapped onto ingress VNs — and Options.RealTime paces the
// synchronization loop against the wall clock so external, unmodified
// processes observe the emulated topology's latency and loss in real time
// — on the same barrier round as every other run, admissions stamped past
// the round's grants.
// Live traffic trades the byte-identical replay guarantee for model-bounded
// accuracy; DESIGN.md §4 states exactly which guarantees survive.
package fednet
