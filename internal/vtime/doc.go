// Package vtime provides the virtual-time discrete-event substrate that the
// entire emulator runs on.
//
// The paper's ModelNet core runs in real time off a 10 kHz hardware timer at
// the kernel's highest priority. In Go, wall-clock scheduling would attribute
// GC pauses and goroutine scheduling jitter to the network under test, so
// this reproduction runs the whole system in virtual time: a deterministic
// event loop whose clock advances only when events fire. Delay accuracy then
// depends only on the model (tick quantization, CPU budgets), never on the
// host.
//
// Events fire in strict (time, sequence) order, the sequence number taken
// when the event is armed; that order — not the heap that implements it — is
// the contract every digest and trace in the repository rests on. The
// scheduler sits under every emulated packet-hop, so its steady state
// allocates nothing: event records are recycled through a per-scheduler free
// list (bounded by the peak number of pending events), and an EventID pairs
// the record with a generation so that an id which has gone stale — fired,
// canceled, or held by its own running callback — can never reach the
// record's next occupant. Timer and Ticker arm with one prebound callback
// each; callers that re-arm per packet should likewise pass a func value
// built once.
//
// Because the order is total, the heap's layout is free, and the scheduler
// uses that: firing or canceling an event leaves its heap slot vacant, and
// the next At seats its event there and sifts from there. The pattern that
// dominates a run — a callback re-arming itself a little ahead (the core's
// activation, a Ticker, an RTO pushed back by an ACK) — then costs one sift
// of a level or two instead of two of full depth. Every method that reads
// the pending set closes an open slot first, so the deferral is not
// observable; it does mean those reads write, and a Scheduler must not be
// read from two goroutines at once any more than it may be driven from two.
// DESIGN.md ("Hop-path cost model") has the full accounting.
//
// Virtual time can still be slaved back to the wall clock when a run must
// interact with the outside world: the parallel runtime's real-time pacing
// mode (parcore.Pacing) releases scheduler windows so that one virtual
// nanosecond elapses per wall nanosecond, which is how live edge traffic
// (internal/edge) experiences emulated delays in real time. The scheduler
// itself stays oblivious — pacing is a property of who calls RunUntil, not
// of the event loop.
package vtime
