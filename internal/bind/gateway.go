package bind

// The gateway bind table: the live-edge analog of the VN binding. A
// federated worker's edge gateway (internal/edge) receives datagrams from
// real, unmodified processes on real sockets; this table decides which
// virtual node each real transport flow impersonates. Static bindings pin
// a known external endpoint to a VN; dynamic bindings let unknown sources
// claim a VN from a bounded pool, with LRU eviction when the pool is
// exhausted — the paper's "unmodified applications on edge hosts" story
// needs exactly this one narrow, explicitly brokered mapping at the
// real/emulated boundary.

import (
	"fmt"

	"modelnet/internal/pipes"
)

// FiveTuple identifies one real transport flow at a gateway socket. Src is
// the remote (external) endpoint, Dst the gateway's bound endpoint; both
// are canonical "ip:port" strings. With one gateway socket per worker the
// protocol and Dst are constant, but the full tuple keeps the key honest
// if a gateway ever binds several sockets.
type FiveTuple struct {
	Proto string // "udp" (TCP gateways would extend this)
	Src   string // external endpoint, "ip:port"
	Dst   string // gateway endpoint, "ip:port"
}

func (k FiveTuple) String() string { return k.Proto + " " + k.Src + "->" + k.Dst }

// gwEntry is one live binding.
type gwEntry struct {
	key      FiveTuple
	vn       pipes.VN
	static   bool
	lastSeen int64 // caller-supplied activity stamp (wall ns at the gateway)
}

// GatewayTable maps real five-tuples onto ingress VNs. It is not safe for
// concurrent use; the gateway serializes access under its own lock.
type GatewayTable struct {
	free  []pipes.VN // unclaimed dynamic pool, claimed in declaration order
	byKey map[FiveTuple]*gwEntry
	byVN  map[pipes.VN]*gwEntry

	// Collisions counts dynamic claims that found the pool exhausted;
	// Evictions counts the bindings recycled to serve them. They differ
	// only when every binding is static (the claim then fails instead).
	Collisions uint64
	Evictions  uint64
}

// NewGatewayTable returns a table whose dynamic pool is the given VNs, in
// claim order.
func NewGatewayTable(pool []pipes.VN) *GatewayTable {
	return &GatewayTable{
		free:  append([]pipes.VN(nil), pool...),
		byKey: make(map[FiveTuple]*gwEntry),
		byVN:  make(map[pipes.VN]*gwEntry),
	}
}

// Bind pins a static binding: datagrams from key impersonate vn, and the
// binding is never evicted. It is an error to bind a key or VN twice.
func (t *GatewayTable) Bind(key FiveTuple, vn pipes.VN) error {
	if _, dup := t.byKey[key]; dup {
		return fmt.Errorf("bind: gateway key %v already bound", key)
	}
	if _, dup := t.byVN[vn]; dup {
		return fmt.Errorf("bind: gateway VN %d already bound", vn)
	}
	e := &gwEntry{key: key, vn: vn, static: true}
	t.byKey[key] = e
	t.byVN[vn] = e
	return nil
}

// Claim resolves key to its VN, creating a dynamic binding on first
// contact: a free pool VN if one remains, else the least-recently-seen
// dynamic binding is evicted and its VN reused (ties broken toward the
// lowest VN, so eviction is deterministic given the activity stamps).
// at is the activity stamp recorded for the binding. The second result is
// false when no VN can be granted (no pool and nothing evictable).
func (t *GatewayTable) Claim(key FiveTuple, at int64) (pipes.VN, bool) {
	if e, ok := t.byKey[key]; ok {
		e.lastSeen = at
		return e.vn, true
	}
	var vn pipes.VN
	if len(t.free) > 0 {
		vn = t.free[0]
		t.free = t.free[1:]
	} else {
		t.Collisions++
		victim := t.lruVictim()
		if victim == nil {
			return 0, false
		}
		t.Evictions++
		delete(t.byKey, victim.key)
		delete(t.byVN, victim.vn)
		vn = victim.vn
	}
	e := &gwEntry{key: key, vn: vn, lastSeen: at}
	t.byKey[key] = e
	t.byVN[vn] = e
	return vn, true
}

// lruVictim picks the least-recently-seen dynamic binding, lowest VN on a
// tie; nil when every binding is static.
func (t *GatewayTable) lruVictim() *gwEntry {
	var victim *gwEntry
	for _, e := range t.byVN {
		if e.static {
			continue
		}
		if victim == nil || e.lastSeen < victim.lastSeen ||
			(e.lastSeen == victim.lastSeen && e.vn < victim.vn) {
			victim = e
		}
	}
	return victim
}
