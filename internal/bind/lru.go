package bind

// lru is a bounded map with exact least-recently-used eviction, kept by use
// stamp instead of a linked list: a hit is one store, with nothing to
// relink, and eviction scans for the smallest stamp. Stamps are unique and
// grow with every use, so the victim is the one a recency list would have
// at its tail. The scan visits at most capacity+1 entries and runs only on
// a miss that overflows — beside the route walk or Dijkstra the miss has
// already paid for.
type lru[K comparable, V any] struct {
	capacity int
	clock    uint64
	entries  map[K]*lruEntry[V]
}

type lruEntry[V any] struct {
	val  V
	used uint64
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{capacity: max(capacity, 1), entries: make(map[K]*lruEntry[V])}
}

// get returns the value cached under k and marks it used.
func (l *lru[K, V]) get(k K) (v V, ok bool) {
	e, ok := l.entries[k]
	if !ok {
		return v, false
	}
	l.clock++
	e.used = l.clock
	return e.val, true
}

// put caches v under k, which must not be present, as the most recently
// used entry, evicting the least recently used one when over capacity.
func (l *lru[K, V]) put(k K, v V) {
	l.clock++
	l.entries[k] = &lruEntry[V]{val: v, used: l.clock}
	if len(l.entries) <= l.capacity {
		return
	}
	var victim K
	oldest := l.clock
	for key, e := range l.entries {
		if e.used < oldest {
			victim, oldest = key, e.used
		}
	}
	delete(l.entries, victim)
}

func (l *lru[K, V]) len() int { return len(l.entries) }

// reset drops every entry.
func (l *lru[K, V]) reset() { clear(l.entries) }
