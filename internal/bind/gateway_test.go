package bind

import (
	"testing"

	"modelnet/internal/pipes"
)

// Len reports the number of live bindings.
func (t *GatewayTable) Len() int { return len(t.byVN) }

func key(src string) FiveTuple {
	return FiveTuple{Proto: "udp", Src: src, Dst: "127.0.0.1:9000"}
}

func TestGatewayTableClaimIsStable(t *testing.T) {
	tb := NewGatewayTable([]pipes.VN{3, 5})
	vn, ok := tb.Claim(key("10.0.0.1:4444"), 1)
	if !ok || vn != 3 {
		t.Fatalf("first claim = (%d, %v), want (3, true)", vn, ok)
	}
	// The same flow resolves to the same VN, not a new claim.
	again, ok := tb.Claim(key("10.0.0.1:4444"), 2)
	if !ok || again != vn {
		t.Fatalf("re-claim = (%d, %v), want (%d, true)", again, ok, vn)
	}
	if tb.Len() != 1 || len(tb.free) != 1 {
		t.Fatalf("after one flow: len %d free %d, want 1/1", tb.Len(), len(tb.free))
	}
	// A different source port is a different flow: new claim.
	other, ok := tb.Claim(key("10.0.0.1:4445"), 3)
	if !ok || other != 5 {
		t.Fatalf("second flow = (%d, %v), want (5, true)", other, ok)
	}
}

func TestGatewayTableEvictsLRU(t *testing.T) {
	tb := NewGatewayTable([]pipes.VN{1, 2})
	a, _ := tb.Claim(key("10.0.0.1:1"), 10)
	b, _ := tb.Claim(key("10.0.0.2:1"), 20)
	// Touch a so b becomes the LRU binding.
	tb.Claim(key("10.0.0.1:1"), 30)

	c, ok := tb.Claim(key("10.0.0.3:1"), 40)
	if !ok {
		t.Fatal("claim with full pool should evict, not fail")
	}
	if c != b {
		t.Fatalf("evicted VN %d, want LRU victim %d", c, b)
	}
	if tb.Collisions != 1 || tb.Evictions != 1 {
		t.Fatalf("collisions/evictions = %d/%d, want 1/1", tb.Collisions, tb.Evictions)
	}
	// The evicted flow lost its binding; the survivor kept its VN.
	e := tb.byVN[b]
	if e == nil {
		t.Fatal("recycled VN should carry the new flow")
	}
	if e.key != key("10.0.0.3:1") {
		t.Fatalf("VN %d now bound to %v, want the new flow", b, e.key)
	}
	if vn, _ := tb.Claim(key("10.0.0.1:1"), 50); vn != a {
		t.Fatalf("survivor rebound to %d, want %d", vn, a)
	}
	// The evicted flow, returning, claims again — evicting the now-LRU
	// newcomer (stamp 40) rather than the recently touched survivor.
	if vn, ok := tb.Claim(key("10.0.0.2:1"), 60); !ok || vn != b {
		t.Fatalf("returning evictee = (%d, %v), want (%d, true)", vn, ok, b)
	}
}

func TestGatewayTableEvictionTieBreaksOnVN(t *testing.T) {
	tb := NewGatewayTable([]pipes.VN{7, 4})
	tb.Claim(key("10.0.0.1:1"), 5) // VN 7
	tb.Claim(key("10.0.0.2:1"), 5) // VN 4, same stamp
	vn, ok := tb.Claim(key("10.0.0.3:1"), 6)
	if !ok || vn != 4 {
		t.Fatalf("tie eviction granted VN %d (ok=%v), want lowest VN 4", vn, ok)
	}
}

func TestGatewayTableStaticBindings(t *testing.T) {
	tb := NewGatewayTable(nil)
	if err := tb.Bind(key("10.0.0.9:9"), 8); err != nil {
		t.Fatal(err)
	}
	if err := tb.Bind(key("10.0.0.9:9"), 9); err == nil {
		t.Fatal("duplicate key bind should error")
	}
	if err := tb.Bind(key("10.0.0.8:8"), 8); err == nil {
		t.Fatal("duplicate VN bind should error")
	}
	// Static bindings resolve through Claim like any other.
	if vn, ok := tb.Claim(key("10.0.0.9:9"), 1); !ok || vn != 8 {
		t.Fatalf("static claim = (%d, %v), want (8, true)", vn, ok)
	}
	// With no dynamic pool and only static bindings, strangers are refused
	// rather than evicting a pinned mapping.
	if _, ok := tb.Claim(key("10.0.0.1:1"), 2); ok {
		t.Fatal("stranger must not displace a static binding")
	}
	if tb.Collisions != 1 || tb.Evictions != 0 {
		t.Fatalf("collisions/evictions = %d/%d, want 1/0", tb.Collisions, tb.Evictions)
	}
}
