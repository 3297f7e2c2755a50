package emucore

// Allocation gates for the hop path. The per-hop work — pipe admission, pipe
// heap, core re-arm, scheduler — runs on recycled descriptors, recycled
// scheduler events and one prebuilt closure per core, so in steady state it
// allocates nothing; these tests hold it there.

import (
	"reflect"
	"testing"

	"modelnet/internal/bind"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// A packet crossing a 12-pipe line under the ideal profile costs 12 pipe
// enqueues, 12 core activations and 24 heap sifts, and allocates nothing:
// the count is for the whole trip and exact, so one allocation on any hop —
// or one per packet anywhere on the path — fails it.
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
	if n := testing.AllocsPerRun(200, trip); n != 0 {
		t.Fatalf("%d-hop Inject→deliver: %v allocs per packet, want 0", hops, n)
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

// fig4Rig is the Fig. 4 point in small: one-hop flows between private pairs
// under the hardware profile, routes from a route cache sized as the
// benchmark sizes it. VN 2i sends to VN 2i+1.
func fig4Rig(tb testing.TB, flows int) (*Emulator, *vtime.Scheduler) {
	tb.Helper()
	g := topology.Pairs(flows, 1, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 10e-3, QueuePkts: 20})
	b, err := bind.Bind(g, bind.Options{RouteCache: flows * 8})
	if err != nil {
		tb.Fatal(err)
	}
	sched := vtime.NewScheduler()
	e, err := New(sched, g, b, nil, DefaultProfile(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return e, sched
}

// Inject reuses pooled descriptors and assigns them field by field, so a
// field it forgets keeps whatever the descriptor's last packet left there.
// Poison every field of a pooled descriptor (reflection checks none is
// missed, so a field added to pipes.Packet fails here first), inject, and
// the live descriptor must equal the literal Inject used to build. Then the
// steady state: an injection with a cached route allocates nothing.
func TestInjectRecycledDescriptorAllocs(t *testing.T) {
	e, sched := fig4Rig(t, 4)
	pkt := &pipes.Packet{
		Seq: ^uint64(0), Size: -1, Src: -1, Dst: -1, Route: bind.Route{7, 7, 7}, Hop: 3,
		Injected: -1, Lag: -1, Epoch: -1, Trace: ^uint64(0), Payload: "stale",
	}
	for i, v := 0, reflect.ValueOf(*pkt); i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("test premise: pipes.Packet.%s is not poisoned", v.Type().Field(i).Name)
		}
	}
	e.pool.Put(pkt) // as delivery and drops do; Put itself clears only Route and Payload
	sched.RunUntil(vtime.Time(3 * vtime.Millisecond))
	route, _ := e.binding.Table.Lookup(2, 3)
	payload := new(int)
	if !e.Inject(2, 3, 1000, payload) {
		t.Fatal("inject refused")
	}
	want := pipes.Packet{
		Seq: e.seq, Size: 1000, Src: 2, Dst: 3, Route: route,
		Injected: sched.Now(), Payload: payload,
	}
	if !reflect.DeepEqual(*pkt, want) {
		t.Fatalf("live descriptor %+v, want %+v", *pkt, want)
	}
	sched.Run()

	n := testing.AllocsPerRun(200, func() {
		if !e.Inject(2, 3, 1000, payload) {
			t.Fatal("inject refused")
		}
		sched.Run()
	})
	if n != 0 {
		t.Fatalf("Inject→deliver with a cached route: %v allocs per packet, want 0", n)
	}
}

// BenchmarkInjectDefaultProfile prices a packet's way in and out of a
// one-hop core under the hardware profile, flows taking turns as fig4's do:
// route-cache hit, NIC and CPU admission, descriptor, one hop, delivery.
func BenchmarkInjectDefaultProfile(b *testing.B) {
	const flows = 120
	e, sched := fig4Rig(b, flows)
	for f := 0; f < flows; f++ { // walk every route into the cache
		e.Inject(pipes.VN(2*f), pipes.VN(2*f+1), 1000, nil)
	}
	sched.Run()
	before := e.Injected
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := pipes.VN(i % flows)
		e.Inject(2*f, 2*f+1, 1000, nil)
		sched.Run()
	}
	if accepted := e.Injected - before; accepted != uint64(b.N) {
		b.Fatalf("%d of %d injections accepted", accepted, b.N)
	}
}
