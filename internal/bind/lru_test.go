package bind

import (
	"math/rand"
	"testing"
)

// The use-stamp LRU must evict what the recency list it replaced evicted:
// the key at the tail of a move-to-front list, kept here as the reference.
func TestLRUEvictsRecencyListTail(t *testing.T) {
	const capacity, keys = 8, 20
	l := newLRU[int, int](capacity)
	var recency []int // most recently used first
	touch := func(k int) {
		for i, r := range recency {
			if r == k {
				recency = append(recency[:i], recency[i+1:]...)
				break
			}
		}
		recency = append([]int{k}, recency...)
	}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 5000; op++ {
		k := rng.Intn(keys)
		if v, ok := l.get(k); ok {
			if v != -k {
				t.Fatalf("op %d: key %d holds %d", op, k, v)
			}
		} else {
			l.put(k, -k)
		}
		touch(k)
		if len(recency) > capacity {
			recency = recency[:capacity] // the list's eviction: drop the tail
		}
		if l.len() != len(recency) {
			t.Fatalf("op %d: %d entries, reference holds %d", op, l.len(), len(recency))
		}
		for _, r := range recency {
			if _, ok := l.entries[r]; !ok {
				t.Fatalf("op %d: key %d evicted, reference keeps it (recency %v)", op, r, recency)
			}
		}
	}
	l.reset()
	if _, ok := l.get(recency[0]); ok || l.len() != 0 {
		t.Fatal("reset left entries behind")
	}
}
