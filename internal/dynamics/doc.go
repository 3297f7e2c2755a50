// Package dynamics is the virtual-time link-dynamics engine: it schedules
// pipes.Params changes as first-class emulation events, implementing the
// paper's §4.3 "dynamic network characteristics" that pipes.SetParams
// exposes but nothing previously drove.
//
// A Spec describes what changes: per-link Profiles, each a sorted timeline
// of Steps (bandwidth, latency, loss, link down/up), optionally looping.
// Profiles come from three sources:
//
//   - trace replay (ParseTrace, the bundled LTE/satellite/wifi samples): a
//     recorded capacity trace replayed as stepped BandwidthBps+Latency,
//     cellular-emulator style;
//   - scripted steps (ParseScript): declarative fault-injection timelines
//     such as "3@2s loss=0.05; 3@5s down; 3@8s up";
//   - hand-built Specs, for tests and embedding.
//
// An Engine attaches a Spec to one emulator: Attach schedules every step of
// the first cycle up front, at absolute virtual times, before any workload
// event exists. Scheduler ties break by insertion order, so a step at time T
// fires before any same-time workload event — identically in sequential,
// in-process parallel, and federated runs, which each attach the same Spec
// to every shard the same way. Looping profiles reschedule one cycle at a
// time from a rollover event at each cycle boundary.
//
// Link failure sets Params.Down: the pipe blackholes new packets (counted
// as pipes.DropLinkDown) while in-flight packets drain on the schedule they
// were assigned on entry. With Spec.Reroute, every Down/Up step also
// schedules a route recomputation RerouteDelay later — the virtual-time
// stand-in for the reconvergence delay a routing protocol such as
// internal/routing's distance-vector implementation would exhibit; the
// recomputed tables are exactly the shortest-path tables DV converges to
// (internal/routing's tests check that equivalence). Recomputation reroutes the
// run's route cache with every down link priced at routing.Infinity, so an
// unreachable destination deterministically routes into the down link and
// blackholes there rather than erroring.
//
// Conservative parallel synchronization must account for a trace lowering a
// cut pipe's latency below its initial value: Spec.FloorLatency reports the
// minimum latency a link can ever take under the spec, and
// parcore.ComputeSyncPlan derives shard lookahead from that floor rather
// than the initial latency (see Spec.LatencyFloorFunc).
package dynamics
