package topology

import (
	"math/rand"
	"sort"
	"testing"
)

// TestMinHeapPopsInSortedOrder: under random interleavings of pushes and
// pops, with many duplicate keys, every Pop returns the minimum of what is
// queued — so draining yields exactly sort's sequence.
func TestMinHeapPopsInSortedOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := MinHeap[int]{Less: func(a, b int) bool { return a < b }}
		var model []int
		pop := func() {
			sort.Ints(model)
			if got := h.Pop(); got != model[0] {
				t.Fatalf("seed %d: Pop = %d, want %d", seed, got, model[0])
			}
			model = model[1:]
		}
		for op := 0; op < 400; op++ {
			if len(model) > 0 && rng.Intn(3) == 0 {
				pop()
			} else {
				x := rng.Intn(40)
				h.Push(x)
				model = append(model, x)
			}
			if h.Len() != len(model) {
				t.Fatalf("seed %d: Len = %d, want %d", seed, h.Len(), len(model))
			}
		}
		for len(model) > 0 {
			pop()
		}
		h.Push(7)
		h.Reset()
		if h.Len() != 0 {
			t.Fatalf("seed %d: Len after Reset = %d", seed, h.Len())
		}
	}
}
