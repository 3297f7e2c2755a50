// Package obs is the observability layer: deterministic virtual-time
// packet tracing, sync/barrier wall-clock profiling, and a live metrics
// endpoint, shared by every execution mode.
//
// Three pillars:
//
//   - Tracing (trace.go). A per-shard Tracer records pipe
//     enqueue/dequeue/drop, delivery, dynamics, reroute, handoff, and
//     physical-drop events stamped in virtual nanoseconds. A nil *Tracer is
//     a disabled tracer — every hook is a single nil check, so the hot path
//     pays nothing when tracing is off. Per-shard tracers merge into a
//     Trace in deterministic (VT, Shard, Seq) order; the canonical binary
//     encoding keeps only mode-invariant content and is byte-identical
//     across sequential, in-process parallel, and federated runs of the
//     same scenario. Exports: canonical binary, JSONL, and Chrome
//     trace-event JSON (chrome://tracing, Perfetto).
//
//   - Profiling (profile.go). DriveProfile splits the conservative loop's
//     wall time into barrier-wait, compute, serial drain, pacing idle, and
//     flush; ShardProfile does the same per shard and tracks lookahead
//     utilization (windows in which the shard actually fired events).
//     RunProfile is the -profile-out JSON artifact.
//
//   - Metrics (metrics.go). Metrics is an atomic counter set served over
//     HTTP (-metrics-listen) as Prometheus text at /metrics and flat JSON
//     at /metrics.json: window rate, virtual clock, pacing lag, data-plane
//     frame/byte counters, and live-edge gateway traffic. The same
//     listener — the coordinator's and each worker's alike, and only where
//     the user asked for one — mounts net/http/pprof under /debug/pprof/,
//     so a slow run can be profiled while it runs
//     (go tool pprof http://host:port/debug/pprof/profile).
//
// The package depends only on pipes and vtime; emucore, parcore, fednet,
// and the CLI layer hooks on top of it.
package obs
