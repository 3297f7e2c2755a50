package pipes

import (
	"testing"

	"modelnet/internal/vtime"
)

func TestPacketPoolRecyclesWithoutReferences(t *testing.T) {
	var pool PacketPool
	a := pool.Get()
	*a = Packet{
		Seq: 7, Size: 100, Src: 1, Dst: 2,
		Route: []ID{1, 2, 3}, Hop: 2,
		Injected: vtime.Time(5), Lag: vtime.Duration(3),
		Payload: "held",
	}
	pool.Put(a)
	if pool.Len() != 1 {
		t.Fatalf("pool len %d", pool.Len())
	}
	if a.Route != nil || a.Payload != nil {
		t.Fatalf("descriptor parked in the free list still references %v / %v", a.Route, a.Payload)
	}
	b := pool.Get()
	if b != a {
		t.Fatal("pool did not reuse the descriptor")
	}
	// The free list must not keep a route or payload alive; the scalar fields
	// are the next user's to overwrite.
	if b.Route != nil || b.Payload != nil {
		t.Fatalf("recycled descriptor retains a reference: %+v", b)
	}
	if pool.Len() != 0 {
		t.Fatalf("pool len %d after Get", pool.Len())
	}
	// Get on an empty pool allocates.
	c := pool.Get()
	if c == a {
		t.Fatal("empty pool returned a live descriptor")
	}
	// Put(nil) is a no-op.
	pool.Put(nil)
	if pool.Len() != 0 {
		t.Fatal("nil Put entered the free list")
	}
}

func TestPacketPoolBounded(t *testing.T) {
	// A shard that receives more packets than it injects must not retain
	// every surplus descriptor: past the cap, Put drops to the GC.
	var pool PacketPool
	for i := 0; i < maxPoolFree+10; i++ {
		pool.Put(&Packet{})
	}
	if pool.Len() != maxPoolFree {
		t.Fatalf("free list grew to %d, cap is %d", pool.Len(), maxPoolFree)
	}
}
