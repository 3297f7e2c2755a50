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

// PopReady removes and returns every pipe whose deadline is ≤ now. Callers
// dequeue the ready packets and then Update the pipe to reinsert it with
// its new deadline, mirroring the paper's scheduler loop.
func (h *Heap) PopReady(now vtime.Time, visit func(*Pipe)) int {
	n := 0
	for len(h.items) > 0 && h.items[0].deadline <= now {
		p := h.items[0].pipe
		h.remove(0)
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
// earlier than it.
func (h *Heap) down(it heapItem, i int) int {
	n := len(h.items)
	for {
		small, d := i, it.deadline
		if l := 2*i + 1; l < n && h.items[l].deadline < d {
			small, d = l, h.items[l].deadline
		}
		if r := 2*i + 2; r < n && h.items[r].deadline < d {
			small = r
		}
		if small == i {
			break
		}
		h.set(i, h.items[small])
		i = small
	}
	h.set(i, it)
	return i
}

func (h *Heap) set(i int, it heapItem) {
	h.items[i] = it
	it.pipe.heapIdx = i + 1
}
