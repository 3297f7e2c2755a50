package bind

import (
	"math/bits"
	"math/rand"
	"testing"
)

// lruModel is the reference the table is compared with: the move-to-front
// recency list the use stamps replaced, evicting its tail.
type lruModel struct {
	capacity int
	recency  []uint64 // most recently used first
}

func (m *lruModel) touch(k uint64) {
	for i, r := range m.recency {
		if r == k {
			m.recency = append(m.recency[:i], m.recency[i+1:]...)
			break
		}
	}
	m.recency = append([]uint64{k}, m.recency...)
	if len(m.recency) > m.capacity {
		m.recency = m.recency[:m.capacity]
	}
}

// lruChecker drives a table and the model with the same operations and
// compares them after each.
type lruChecker struct {
	t  *testing.T
	l  *lru[uint64]
	m  lruModel
	op int
}

func newLRUChecker(t *testing.T, capacity int) *lruChecker {
	return &lruChecker{t: t, l: newLRU[uint64](capacity), m: lruModel{capacity: max(capacity, 1)}}
}

// use is the cache's one access pattern: get, put on a miss.
func (c *lruChecker) use(k uint64) {
	c.t.Helper()
	c.op++
	if v, ok := c.l.get(k); ok {
		if v != ^k {
			c.t.Fatalf("op %d: key %#x holds %#x", c.op, k, v)
		}
	} else {
		c.l.put(k, ^k)
	}
	c.m.touch(k)
	c.check()
}

// check compares the table with the model slot by slot — exactly the model's
// keys, each once, each reachable from its home without crossing an empty
// slot — and asserts the occupancy bound.
func (c *lruChecker) check() {
	c.t.Helper()
	l, want := c.l, c.m.recency
	if l.len() != len(want) {
		c.t.Fatalf("op %d: %d entries, reference holds %d", c.op, l.len(), len(want))
	}
	live := map[uint64]bool{}
	for _, s := range l.slots {
		if s.used != 0 {
			if live[s.key] {
				c.t.Fatalf("op %d: key %#x sits in two slots", c.op, s.key)
			}
			live[s.key] = true
		}
	}
	if len(live) != len(want) {
		c.t.Fatalf("op %d: %d occupied slots, reference holds %d", c.op, len(live), len(want))
	}
	for _, k := range want {
		if !live[k] {
			c.t.Fatalf("op %d: key %#x evicted, reference keeps it (recency %x)", c.op, k, want)
		}
		// Reachability by the probe get runs, without get's stamp.
		mask := uint64(len(l.slots) - 1)
		for i := l.home(k); l.slots[i].key != k; i = (i + 1) & mask {
			if l.slots[i].used == 0 {
				c.t.Fatalf("op %d: key %#x is in the table but its probe chain is broken", c.op, k)
			}
		}
	}
	if bound := 2 * max(minSlots, ceilPow2(len(want))); len(l.slots) > bound {
		c.t.Fatalf("op %d: %d slots for %d entries (capacity %d), bound %d", c.op, len(l.slots), len(want), l.capacity, bound)
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// keysHomedAt returns n distinct keys whose home in a table of the given
// slot count is exactly home.
func keysHomedAt(slots int, home uint64, n int) []uint64 {
	probe := lru[uint64]{shift: uint(64 - bits.TrailingZeros(uint(slots)))}
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if probe.home(k) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// The table must evict what the recency list it replaced evicted, whatever
// the keys: random ones, ones that share a home, chains that wrap the table
// end, and at every capacity down to 1.
func TestLRUEvictsRecencyListTail(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 9, 64, 100} {
		keys := uint64(5*capacity/2 + 2)
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := newLRUChecker(t, capacity)
		// Key shapes the callers use, plus multiples of the slot count and of
		// 2^32 (keys that differ only in bits a weak hash would drop).
		shapes := []func(uint64) uint64{
			func(i uint64) uint64 { return i },
			func(i uint64) uint64 { return i<<32 | (i + 1) },
			func(i uint64) uint64 { return i * uint64(2*ceilPow2(capacity)) },
			func(i uint64) uint64 { return i << 32 },
		}
		for op := 0; op < 20000; op++ {
			if op%5000 == 4999 {
				c.l.reset()
				c.m.recency = nil
				c.check()
				if len(c.l.slots) != 0 {
					t.Fatalf("capacity %d: reset kept %d slots", capacity, len(c.l.slots))
				}
			}
			c.use(shapes[op/5000](uint64(rng.Int63n(int64(keys)))))
		}
	}
}

// Colliding keys: a probe chain that starts in the table's last slots and
// runs across index 0, an eviction from the middle of it (every key behind
// the hole must stay reachable), and growth while the chain is that long.
func TestLRUProbeChainsSurviveEvictionAndGrowth(t *testing.T) {
	for _, home := range []uint64{0, 3, minSlots - 2, minSlots - 1} {
		// Capacity 4 keeps the table at minSlots; four keys share one home,
		// so the chain is home..home+3 and wraps for the last two homes.
		c := newLRUChecker(t, 4)
		chain := keysHomedAt(minSlots, home, 9)
		for _, k := range chain[:4] {
			c.use(k)
		}
		if len(c.l.slots) != minSlots {
			t.Fatalf("test premise: %d slots, want %d", len(c.l.slots), minSlots)
		}
		// Make the second key of the chain the oldest, then overflow: the
		// hole opens mid-chain and the two keys behind it must shift up.
		c.use(chain[0])
		c.use(chain[2])
		c.use(chain[3])
		c.use(chain[4]) // evicts chain[1]
		if _, ok := c.l.get(chain[1]); ok {
			t.Fatalf("home %d: the least recently used key survived", home)
		}
		for _, k := range []uint64{chain[0], chain[2], chain[3], chain[4]} {
			if _, ok := c.l.get(k); !ok {
				t.Fatalf("home %d: key %#x behind the evicted slot was orphaned", home, k)
			}
			c.m.touch(k)
		}
		c.check()
		// Evict the head of the chain, then the tail, under further churn.
		for _, k := range chain[5:] {
			c.use(k)
		}

		// Growth mid-chain: the same colliding keys in a table that doubles
		// from minSlots to 16 slots while they sit in one run.
		g := newLRUChecker(t, 8)
		for _, k := range chain[:8] {
			g.use(k)
		}
		if len(g.l.slots) != 2*minSlots {
			t.Fatalf("test premise: %d slots after growth, want %d", len(g.l.slots), 2*minSlots)
		}
		for _, k := range chain {
			g.use(k)
		}
	}
}

// The table is sized by what it holds: a huge capacity costs nothing until
// entries arrive, and ten of them cost 32 slots.
func TestLRUSizedByOccupancy(t *testing.T) {
	c := newLRUChecker(t, 1<<17)
	if c.l.slots != nil {
		t.Fatal("newLRU allocated a table")
	}
	for k := uint64(0); k < 10; k++ {
		c.use(k<<32 | (k + 1))
	}
	if len(c.l.slots) != 32 {
		t.Fatalf("%d slots for 10 entries, want 32", len(c.l.slots))
	}
}
