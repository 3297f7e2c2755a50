package emucore

// Allocation gates for the hop path. The per-hop work — pipe admission, pipe
// heap, core re-arm, scheduler — runs on recycled descriptors, recycled
// scheduler events and one prebuilt closure per core, so in steady state it
// allocates nothing; these tests hold it there.

import (
	"testing"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
)

// A packet crossing a 12-pipe line under the ideal profile costs 12 pipe
// enqueues, 12 core activations and 24 heap sifts. The budget is for the
// whole trip, so it catches a single allocation per hop.
func TestHopPathAllocs(t *testing.T) {
	const hops = 12
	g := topology.Line(hops-1, attrs(1000, 1))
	e, sched, _ := fixture(t, g, 1, IdealProfile())
	e.RegisterVN(1, nil) // the fixture's recorder appends per delivery
	trip := func() {
		if !e.Inject(0, 1, 1000, nil) {
			t.Fatal("inject refused")
		}
		sched.Run()
	}
	trip() // warm the packet pool, the event free list and the pipe queues
	before := e.Delivered
	const budget = 1 // per 12-hop trip; steady state measures 0
	if n := testing.AllocsPerRun(200, trip); n > budget {
		t.Fatalf("%d-hop Inject→deliver: %v allocs per packet, budget %d", hops, n, budget)
	}
	if e.Delivered-before != 201 || e.Totals().VirtualDrops != 0 {
		t.Fatalf("test premise: every packet should cross all %d pipes (delivered %d, totals %+v)",
			hops, e.Delivered-before, e.Totals())
	}
	if got := e.pipes[0].Accepted; got != e.Delivered {
		t.Fatalf("first pipe accepted %d of %d packets", got, e.Delivered)
	}
}

// An emulated pipe drop with no DropHook installed must not build the
// "pipe-<reason>" label nobody will read.
func TestPipeDropAllocs(t *testing.T) {
	g := topology.Line(1, topology.LinkAttrs{BandwidthBps: 8e6, LatencySec: 5e-3, QueuePkts: 4})
	e, sched, _ := fixture(t, g, 1, IdealProfile())
	for i := 0; i < 4; i++ { // fill the first pipe's queue at t=0
		e.Inject(0, 1, 1000, nil)
	}
	drops := func() uint64 { return e.pipes[0].Drops[pipes.DropBacklog] }
	e.Inject(0, 1, 1000, nil) // first drop: warms the descriptor pool
	if drops() != 1 {
		t.Fatalf("test premise: the fifth packet should be a backlog drop, drops %d", drops())
	}
	n := testing.AllocsPerRun(100, func() { e.Inject(0, 1, 1000, nil) })
	if drops() != 102 {
		t.Fatalf("test premise: every further inject should drop, drops %d", drops())
	}
	if n != 0 {
		t.Fatalf("full-queue enqueue without a DropHook: %v allocs per drop, want 0", n)
	}
	// With a hook the label is built and delivered.
	var where string
	e.DropHook = func(_ *pipes.Packet, w string) { where = w }
	e.Inject(0, 1, 1000, nil)
	if where != "pipe-"+pipes.DropBacklog.String() {
		t.Fatalf("DropHook got %q", where)
	}
	sched.Run()
}
