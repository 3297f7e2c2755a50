package bind

import "math/bits"

// lru is a bounded cache under 64-bit keys with exact least-recently-used
// eviction: one open-addressed table, probed linearly, with the use stamp in
// the slot. A hit is one multiply, one probe and one store — no second hash
// structure, no entry to dereference, nothing to relink.
//
// Slot layout: {key, used, val}; used == 0 marks an empty slot (stamps start
// at 1). The slot count is a power of two and the table is at most half
// full, so a probe always ends at an empty slot.
//
// Deletion is by backward shift, not tombstones: the entries behind a freed
// slot move up into it when their home allows, so a probe chain never holds
// a gap and the table never needs cleaning.
//
// Exact LRU: stamps are unique and grow with every use, so the slot with the
// smallest stamp is the entry a recency list would have at its tail. The
// victim scan visits every slot (under four per entry of capacity) and runs
// only on a miss that overflows — beside the route walk or Dijkstra the miss
// has already paid for.
//
// Size follows occupancy, not capacity: nothing is allocated before the
// first put, the table doubles when it would pass half full, and reset frees
// it. So slots ≤ 2 × max(minSlots, entries rounded up to a power of two),
// and a cache of capacity 1<<17 holding ten routes is 32 slots.
type lru[V any] struct {
	capacity int
	n        int
	clock    uint64
	shift    uint // 64 − log2(len(slots)): a key's home is its hash's top bits
	slots    []slot[V]
}

type slot[V any] struct {
	key  uint64
	used uint64
	val  V
}

const (
	minSlots = 8
	// fibHash is 2^64/φ: multiplying by it spreads keys that differ only in
	// a few bits — packed (src, dst) or (epoch, target) words — over the top
	// bits that home reads.
	fibHash = 0x9E3779B97F4A7C15
)

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{capacity: max(capacity, 1)}
}

func (l *lru[V]) home(k uint64) uint64 { return k * fibHash >> l.shift }

// get returns the value cached under k and marks it used.
func (l *lru[V]) get(k uint64) (v V, ok bool) {
	if len(l.slots) == 0 {
		return v, false
	}
	mask := uint64(len(l.slots) - 1)
	for i := l.home(k); ; i = (i + 1) & mask {
		s := &l.slots[i]
		if s.used == 0 {
			return v, false
		}
		if s.key == k {
			l.clock++
			s.used = l.clock
			return s.val, true
		}
	}
}

// put caches v under k, which must not be present, as the most recently
// used entry, evicting the least recently used one when at capacity. The
// victim goes first: it is never the new entry, whose stamp is the newest,
// and the table then never holds capacity+1.
func (l *lru[V]) put(k uint64, v V) {
	if l.n == l.capacity {
		l.evict()
	} else if 2*(l.n+1) > len(l.slots) {
		l.grow()
	}
	l.clock++
	l.place(slot[V]{key: k, used: l.clock, val: v})
	l.n++
}

// place seats s in the first empty slot at or after its home.
func (l *lru[V]) place(s slot[V]) {
	mask := uint64(len(l.slots) - 1)
	i := l.home(s.key)
	for l.slots[i].used != 0 {
		i = (i + 1) & mask
	}
	l.slots[i] = s
}

// grow doubles the table (or allocates it) and reseats every entry, stamps
// kept.
func (l *lru[V]) grow() {
	old := l.slots
	l.slots = make([]slot[V], max(2*len(old), minSlots))
	l.shift = uint(64 - bits.TrailingZeros(uint(len(l.slots))))
	for _, s := range old {
		if s.used != 0 {
			l.place(s)
		}
	}
}

// evict removes the entry with the smallest stamp and closes its probe
// chain: each entry behind the hole moves into it unless its home lies
// cyclically after the hole (moving it would put it before its home, where
// no probe looks), until an empty slot ends the chain.
func (l *lru[V]) evict() {
	var hole uint64
	oldest := l.clock + 1
	for i := range l.slots {
		if u := l.slots[i].used; u != 0 && u < oldest {
			hole, oldest = uint64(i), u
		}
	}
	mask := uint64(len(l.slots) - 1)
	for j := (hole + 1) & mask; l.slots[j].used != 0; j = (j + 1) & mask {
		if (j-l.home(l.slots[j].key))&mask >= (j-hole)&mask {
			l.slots[hole] = l.slots[j]
			hole = j
		}
	}
	l.slots[hole] = slot[V]{}
	l.n--
}

func (l *lru[V]) len() int { return l.n }

// reset drops every entry and the table with them.
func (l *lru[V]) reset() { l.slots, l.n = nil, 0 }
