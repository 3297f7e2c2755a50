// Package pipes implements ModelNet's emulated links: each pipe has a
// bandwidth, a propagation latency, a random loss rate, and a bounded packet
// queue with a configurable discipline (drop-tail FIFO by default, RED
// optionally). Packets move through pipes by reference; pipe processing
// never copies packet data (§2).
//
// A packet first waits in the pipe's transmission queue for earlier packets
// to drain at the pipe's bandwidth, then rides the delay line for the pipe's
// latency — the delay line holds up to a bandwidth-delay product when the
// link is fully utilized, exactly as in dummynet.
//
// The package also supplies the data-path plumbing the emulation core
// leans on: Packet descriptors (recycled through a PacketPool free list so
// steady-state emulation allocates nothing per packet; Put drops a
// descriptor's references and Get's caller overwrites the rest) and the pipe
// Heap the §2.2 scheduler loop pops ready deadlines from. That loop is
// written over two primitives — Heap.PopNext, the earliest pipe if it is
// due, and Pipe.DequeueNext, a pipe's head packet if it is due — and
// Heap.PopReady / Pipe.DequeueReady are the same loops taking a callback.
//
// The heap is intrusive: each pipe records its own heap position, so a pipe
// belongs to at most one Heap — its owning core's — and a hop costs two
// sifts and no lookups. Pipe deadlines carry no tie-break, so the order in
// which equal deadlines pop is whatever the sift produces; that order is
// simulated behaviour (it decides drop victims and digests) and the heap's
// tests pin it. The descent selects the earlier child arithmetically rather
// than by branching — the comparisons, and so the layout, are unchanged.
package pipes
