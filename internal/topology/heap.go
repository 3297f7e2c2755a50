package topology

// MinHeap is the tree's one priority queue: a typed binary min-heap ordered
// by Less, which must be set before the first Push. The zero value is an
// empty heap. Elements that compare equal pop in an unspecified order, so a
// caller whose result depends on that order must make Less total.
type MinHeap[T any] struct {
	Less func(a, b T) bool
	s    []T
}

// Len reports the number of queued elements.
func (h *MinHeap[T]) Len() int { return len(h.s) }

// Reset empties the heap, keeping its storage for reuse.
func (h *MinHeap[T]) Reset() { h.s = h.s[:0] }

// Push queues x.
func (h *MinHeap[T]) Push(x T) {
	h.s = append(h.s, x)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(x, h.s[parent]) {
			break
		}
		h.s[i] = h.s[parent]
		i = parent
	}
	h.s[i] = x
}

// Pop removes and returns a minimum element. It panics on an empty heap.
func (h *MinHeap[T]) Pop() T {
	top := h.s[0]
	n := len(h.s) - 1
	x := h.s[n]
	h.s = h.s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.Less(h.s[c+1], h.s[c]) {
			c++
		}
		if !h.Less(h.s[c], x) {
			break
		}
		h.s[i] = h.s[c]
		i = c
	}
	if n > 0 {
		h.s[i] = x
	}
	return top
}
