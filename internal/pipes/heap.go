package pipes

import "modelnet/internal/vtime"

// Heap is the pipe heap from §2.2: pipes ordered by earliest deadline,
// where a pipe's deadline is the exit time of the first packet in its
// queue. The core scheduler traverses it every clock tick.
//
// Each tracked pipe carries its own position (Pipe.heapIdx), so a pipe
// whose deadline changes is re-sifted in O(log n) with no search and no
// side table. The price is that a pipe may sit in at most one Heap at a
// time — which is the emulator's ownership rule anyway: a pipe belongs to
// exactly one core.
//
// Equal deadlines pop in an order fixed by the sift itself (strict < on the
// way down, <= on the way up, last item moved into a vacated slot). That
// order is part of every run's digest; a change to the sift is a change to
// simulated behaviour.
type Heap struct {
	items []heapItem
}

type heapItem struct {
	pipe     *Pipe
	deadline vtime.Time
}

// NewHeap returns an empty pipe heap.
func NewHeap() *Heap {
	return &Heap{}
}

// Len reports the number of pipes with a live deadline.
func (h *Heap) Len() int { return len(h.items) }

// Min returns the earliest deadline, or vtime.Forever if empty.
func (h *Heap) Min() vtime.Time {
	if len(h.items) == 0 {
		return vtime.Forever
	}
	return h.items[0].deadline
}

// Update records pipe's current deadline. A deadline of vtime.Forever
// removes the pipe from the heap; otherwise the pipe is inserted or moved.
func (h *Heap) Update(p *Pipe) {
	d := p.NextDeadline()
	i := p.heapIdx - 1
	if d == vtime.Forever {
		if i >= 0 {
			h.remove(i)
		}
		return
	}
	it := heapItem{p, d}
	if i < 0 {
		h.items = append(h.items, it)
		h.up(it, len(h.items)-1)
		return
	}
	if old := h.items[i].deadline; d < old {
		h.up(it, i)
	} else if d > old {
		h.down(it, i)
	}
}

// Scan visits every pipe with a live deadline, in unspecified order. The
// parallel runtime's adaptive horizon walks the occupied pipes this way at
// each barrier: the heap holds exactly the pipes holding packets, so the
// scan is O(occupied), not O(topology).
func (h *Heap) Scan(visit func(ID, vtime.Time)) {
	for _, it := range h.items {
		visit(it.pipe.ID(), it.deadline)
	}
}

// PopNext removes and returns the earliest pipe if its deadline is ≤ now,
// else nil. Callers dequeue the pipe's ready packets and then Update it to
// reinsert it with its new deadline — the paper's scheduler loop.
func (h *Heap) PopNext(now vtime.Time) *Pipe {
	if len(h.items) == 0 || h.items[0].deadline > now {
		return nil
	}
	p := h.items[0].pipe
	h.remove(0)
	return p
}

// PopReady calls visit with each pipe PopNext(now) yields until none is
// due, and returns how many that was.
func (h *Heap) PopReady(now vtime.Time, visit func(*Pipe)) int {
	n := 0
	for p := h.PopNext(now); p != nil; p = h.PopNext(now) {
		n++
		visit(p)
	}
	return n
}

// remove drops the item at position i and re-seats the displaced tail item
// in the hole: down if a child is earlier, else up.
func (h *Heap) remove(i int) {
	n := len(h.items) - 1
	h.items[i].pipe.heapIdx = 0
	tail := h.items[n]
	h.items = h.items[:n]
	if i < n && h.down(tail, i) == i {
		h.up(tail, i)
	}
}

// up seats it at position i or above: ancestors with a strictly later
// deadline shift down into the hole (an equal one stops the climb).
func (h *Heap) up(it heapItem, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].deadline <= it.deadline {
			break
		}
		h.set(i, h.items[parent])
		i = parent
	}
	h.set(i, it)
}

// down seats it at position i or below and returns where: the earlier child
// (the left one on a tie) shifts up into the hole while it is strictly
// earlier than it. Which child is earlier is a coin flip the branch
// predictor cannot learn, so it is computed as an index offset, not
// branched on; whether that child beats it is the one real test, and it is
// true until the last level. The comparisons' outcomes are those of the
// textbook item → left → right strict-< cascade (see refHeap in the tests).
func (h *Heap) down(it heapItem, i int) int {
	items := h.items
	n := len(items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			rightEarlier := 0
			if items[r].deadline < items[c].deadline {
				rightEarlier = 1
			}
			c += rightEarlier
		}
		if items[c].deadline >= it.deadline {
			break
		}
		h.set(i, items[c])
		i = c
	}
	h.set(i, it)
	return i
}

func (h *Heap) set(i int, it heapItem) {
	h.items[i] = it
	it.pipe.heapIdx = i + 1
}
