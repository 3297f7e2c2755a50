package pipes

// Dedicated heap tests, white-box: the pipe's queue is crafted directly so
// Update can be driven through transitions the emulator only produces under
// load — removal via a Forever deadline, in-place deadline increases and
// decreases (re-sift down and up), and PopReady over tied deadlines.

import (
	"math/rand"
	"sort"
	"testing"

	"modelnet/internal/vtime"
)

// setDeadline forces p's next deadline to d (Forever = empty pipe).
func setDeadline(p *Pipe, d vtime.Time) {
	p.head, p.txHead = 0, 0
	if d == vtime.Forever {
		p.q = p.q[:0]
		return
	}
	p.q = append(p.q[:0], entry{exit: d})
}

// bareWithDeadline builds a pipe the heap can track without going through
// Enqueue (the heap touches only ID and NextDeadline).
func bareWithDeadline(id ID, d vtime.Time) *Pipe {
	p := &Pipe{id: id}
	setDeadline(p, d)
	return p
}

func TestHeapUpdateForeverRemoves(t *testing.T) {
	h := NewHeap()
	ps := make([]*Pipe, 5)
	for i := range ps {
		ps[i] = bareWithDeadline(ID(i), vtime.Time((i+1)*10))
		h.Update(ps[i])
	}
	// Remove the minimum: the next-smallest must surface.
	setDeadline(ps[0], vtime.Forever)
	h.Update(ps[0])
	if h.Len() != 4 || h.Min() != 20 {
		t.Fatalf("after removing min: len %d min %v", h.Len(), h.Min())
	}
	// Removing an untracked pipe is a no-op.
	h.Update(ps[0])
	if h.Len() != 4 {
		t.Fatalf("double removal changed len to %d", h.Len())
	}
	// Remove from the middle and the tail.
	setDeadline(ps[2], vtime.Forever)
	h.Update(ps[2])
	setDeadline(ps[4], vtime.Forever)
	h.Update(ps[4])
	if h.Len() != 2 || h.Min() != 20 {
		t.Fatalf("after middle+tail removal: len %d min %v", h.Len(), h.Min())
	}
	// Re-inserting a removed pipe works.
	setDeadline(ps[0], 5)
	h.Update(ps[0])
	if h.Len() != 3 || h.Min() != 5 {
		t.Fatalf("after re-insert: len %d min %v", h.Len(), h.Min())
	}
}

func TestHeapUpdateResifts(t *testing.T) {
	h := NewHeap()
	ps := make([]*Pipe, 8)
	for i := range ps {
		ps[i] = bareWithDeadline(ID(i), vtime.Time((i+1)*100))
		h.Update(ps[i])
	}
	// Increase the minimum past everything: it must sift down.
	setDeadline(ps[0], 10_000)
	h.Update(ps[0])
	if h.Min() != 200 {
		t.Fatalf("after increase: min %v, want 200", h.Min())
	}
	// Decrease a tail pipe below everything: it must sift up.
	setDeadline(ps[7], 1)
	h.Update(ps[7])
	if h.Min() != 1 {
		t.Fatalf("after decrease: min %v, want 1", h.Min())
	}
	// An equal-deadline update must not corrupt the heap.
	setDeadline(ps[3], 400)
	h.Update(ps[3])
	// Drain: pops must come out in nondecreasing deadline order and cover
	// every pipe exactly once.
	seen := map[ID]bool{}
	last := vtime.Time(-1)
	for h.Len() > 0 {
		now := h.Min()
		if now < last {
			t.Fatalf("heap order violated: %v after %v", now, last)
		}
		last = now
		h.PopReady(now, func(p *Pipe) {
			if seen[p.ID()] {
				t.Fatalf("pipe %d popped twice", p.ID())
			}
			seen[p.ID()] = true
			setDeadline(p, vtime.Forever)
		})
	}
	if len(seen) != len(ps) {
		t.Fatalf("drained %d of %d pipes", len(seen), len(ps))
	}
}

func TestHeapPopReadyTies(t *testing.T) {
	build := func() (*Heap, []*Pipe) {
		h := NewHeap()
		ps := make([]*Pipe, 9)
		for i := range ps {
			d := vtime.Time(50) // pipes 0..5 tie
			if i >= 6 {
				d = vtime.Time(100 + i) // 6..8 later
			}
			ps[i] = bareWithDeadline(ID(i), d)
			h.Update(ps[i])
		}
		return h, ps
	}
	h, _ := build()
	var order []ID
	n := h.PopReady(50, func(p *Pipe) { order = append(order, p.ID()) })
	if n != 6 || len(order) != 6 {
		t.Fatalf("popped %d pipes (%v), want the 6 tied ones", n, order)
	}
	sorted := append([]ID(nil), order...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, id := range sorted {
		if id != ID(i) {
			t.Fatalf("tied pop covered %v, want pipes 0..5", order)
		}
	}
	if h.Len() != 3 || h.Min() != 106 {
		t.Fatalf("after tied pop: len %d min %v", h.Len(), h.Min())
	}
	// Tie order is deterministic: an identical build pops identically.
	h2, _ := build()
	var order2 []ID
	h2.PopReady(50, func(p *Pipe) { order2 = append(order2, p.ID()) })
	for i := range order {
		if order[i] != order2[i] {
			t.Fatalf("tie order not deterministic: %v vs %v", order, order2)
		}
	}
}

// Property: under arbitrary churn of insert/move/remove, Min always equals
// the true minimum and membership matches a shadow map.
func TestHeapChurnProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHeap()
	ps := make([]*Pipe, 16)
	for i := range ps {
		ps[i] = bareWithDeadline(ID(i), vtime.Forever)
	}
	for step := 0; step < 5000; step++ {
		p := ps[rng.Intn(len(ps))]
		switch rng.Intn(4) {
		case 0, 1: // set (insert or move, including decreases)
			setDeadline(p, vtime.Time(rng.Intn(1000)+1))
		case 2: // remove
			setDeadline(p, vtime.Forever)
		case 3: // equal re-update
		}
		h.Update(p)
		want, live := vtime.Forever, 0
		for _, q := range ps {
			if d := q.NextDeadline(); d != vtime.Forever {
				live++
				if d < want {
					want = d
				}
			}
		}
		if h.Min() != want || h.Len() != live {
			t.Fatalf("step %d: min %v want %v, len %d want %d", step, h.Min(), want, h.Len(), live)
		}
	}
}

// refHeap is the swap-based binary heap with a position side table that
// Heap replaced. It is kept here as the reference for the one thing a heap
// rewrite could silently change: the order in which equal deadlines pop,
// which every run's digest depends on.
type refHeap struct {
	items []heapItem
	pos   map[ID]int
}

func (h *refHeap) update(p *Pipe) {
	d := p.NextDeadline()
	i, tracked := h.pos[p.ID()]
	switch {
	case d == vtime.Forever:
		if tracked {
			h.remove(i)
		}
	case !tracked:
		h.items = append(h.items, heapItem{p, d})
		h.pos[p.ID()] = len(h.items) - 1
		h.up(len(h.items) - 1)
	default:
		old := h.items[i].deadline
		h.items[i].deadline = d
		if d < old {
			h.up(i)
		} else if d > old {
			h.down(i)
		}
	}
}

func (h *refHeap) remove(i int) {
	last := len(h.items) - 1
	delete(h.pos, h.items[i].pipe.ID())
	if i != last {
		h.items[i] = h.items[last]
		h.pos[h.items[i].pipe.ID()] = i
	}
	h.items = h.items[:last]
	if i < len(h.items) {
		h.down(i)
		h.up(i)
	}
}

func (h *refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].deadline <= h.items[i].deadline {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *refHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].deadline < h.items[small].deadline {
			small = l
		}
		if r < n && h.items[r].deadline < h.items[small].deadline {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *refHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].pipe.ID()] = i
	h.pos[h.items[j].pipe.ID()] = j
}

// Property: under random Update (insert, move both ways, equal re-update,
// Forever removal) and PopReady churn over a handful of colliding deadlines,
// every tracked pipe's heapIdx names its slot, every untracked pipe's is
// zero, and the layout — hence the pop order of ties — is slot for slot the
// reference heap's.
func TestHeapIndexAndTieOrderMatchReference(t *testing.T) {
	matchReference(t, 5, 40, 8) // 8 values: ties everywhere
}

// The same differential where it is hardest on the descent's child select:
// deadlines come from four values, so on the way down the two children tie
// with each other, and one or both tie with the sinking item, at every level
// of a seven-level heap. Left must win the first kind of tie and the item the
// second, exactly as in the reference's item → left → right cascade.
func TestHeapTieDenseDescentMatchesReference(t *testing.T) {
	matchReference(t, 6, 120, 4)
}

// matchReference runs the differential over nPipes pipes whose deadlines are
// drawn from spread consecutive values ahead of now.
func matchReference(t *testing.T, seed int64, nPipes, spread int) {
	rng := rand.New(rand.NewSource(seed))
	h := NewHeap()
	ref := &refHeap{pos: map[ID]int{}}
	ps := make([]*Pipe, nPipes)
	for i := range ps {
		ps[i] = bareWithDeadline(ID(i), vtime.Forever)
	}
	check := func(step int) {
		t.Helper()
		if len(h.items) != len(ref.items) {
			t.Fatalf("step %d: %d items, reference has %d", step, len(h.items), len(ref.items))
		}
		for i, it := range h.items {
			if it != ref.items[i] {
				t.Fatalf("step %d: slot %d holds pipe %d@%v, reference pipe %d@%v",
					step, i, it.pipe.ID(), it.deadline, ref.items[i].pipe.ID(), ref.items[i].deadline)
			}
			if it.pipe.heapIdx != i+1 {
				t.Fatalf("step %d: pipe %d in slot %d has heapIdx %d", step, it.pipe.ID(), i, it.pipe.heapIdx)
			}
			if it.deadline != it.pipe.NextDeadline() {
				t.Fatalf("step %d: slot %d caches %v, pipe says %v", step, i, it.deadline, it.pipe.NextDeadline())
			}
		}
		for _, p := range ps {
			if _, tracked := ref.pos[p.ID()]; !tracked && p.heapIdx != 0 {
				t.Fatalf("step %d: untracked pipe %d has heapIdx %d", step, p.ID(), p.heapIdx)
			}
		}
	}
	now := vtime.Time(0)
	for step := 0; step < 20000; step++ {
		if rng.Intn(5) == 0 {
			// The core's loop: pop everything due, give each popped pipe its
			// next deadline (often Forever), re-insert.
			now += vtime.Time(rng.Intn(3))
			var order, refOrder []ID
			h.PopReady(now, func(p *Pipe) {
				order = append(order, p.ID())
				next := vtime.Forever
				if rng.Intn(3) > 0 {
					next = now + vtime.Time(rng.Intn(spread)+1)
				}
				setDeadline(p, next)
				h.Update(p)
				// Replay the same pop on the reference.
				refOrder = append(refOrder, ref.items[0].pipe.ID())
				ref.remove(0)
				ref.update(p)
			})
			for i := range order {
				if order[i] != refOrder[i] {
					t.Fatalf("step %d: popped %v, reference %v", step, order, refOrder)
				}
			}
		} else {
			p := ps[rng.Intn(len(ps))]
			switch rng.Intn(6) {
			case 0:
				setDeadline(p, vtime.Forever)
			case 1: // equal re-update
			default:
				setDeadline(p, now+vtime.Time(rng.Intn(spread)+1))
			}
			h.Update(p)
			ref.update(p)
		}
		check(step)
	}
}

// Property: PopReady/DequeueReady and plain loops over PopNext/DequeueNext
// are the same drain. Two identical worlds take the same arrivals; one is
// drained through the wrappers, the other by hand, and after every drain
// the delivered (pipe, packet, exit) sequence, each pipe's counters, RED
// idle state and queue layout (so: compaction), and the heap's layout agree.
func TestWrappersMatchPrimitiveLoops(t *testing.T) {
	type rec struct {
		pipe ID
		seq  uint64
		exit vtime.Time
	}
	build := func(seed int64) (*Heap, []*Pipe) {
		ps := make([]*Pipe, 12)
		for i := range ps {
			par := Params{BandwidthBps: 1e9, Latency: vtime.Duration(i%4) * 300 * vtime.Microsecond, QueuePkts: 400}
			switch {
			case i == 0: // long delay line, never empty: the dead prefix gets compacted
				par.Latency = 5 * vtime.Millisecond
			case i%3 == 1: // slow RED pipes that drain empty now and then
				par.BandwidthBps, par.QueuePkts, par.RED = 40e6, 20, DefaultRED(20)
			}
			ps[i] = New(ID(i), par, seed)
		}
		return NewHeap(), ps
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hA, psA := build(seed)
		hB, psB := build(seed)
		offer := func(i int, seq uint64, size int, now vtime.Time) {
			rA, _ := psA[i].Enqueue(&Packet{Seq: seq, Size: size}, now)
			rB, _ := psB[i].Enqueue(&Packet{Seq: seq, Size: size}, now)
			if rA != rB {
				t.Fatalf("seed %d: the two worlds disagree on admission (%v / %v)", seed, rA, rB)
			}
			hA.Update(psA[i])
			hB.Update(psB[i])
		}
		var seq uint64
		now := vtime.Time(0)
		compactions, redIdles := 0, 0
		for step := 0; step < 4000; step++ {
			now = now.Add(vtime.Duration(rng.Intn(150)) * vtime.Microsecond)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				seq++
				offer(0, seq, 200+rng.Intn(1200), now)
			}
			for k := rng.Intn(5); k > 0; k-- {
				seq++
				offer(1+rng.Intn(len(psA)-1), seq, 200+rng.Intn(1200), now)
			}
			headBefore := psA[0].head

			var a, b []rec
			nA := hA.PopReady(now, func(p *Pipe) {
				p.DequeueReady(now, func(pk *Packet, exit vtime.Time) { a = append(a, rec{p.ID(), pk.Seq, exit}) })
				hA.Update(p)
			})
			nB := 0
			for p := hB.PopNext(now); p != nil; p = hB.PopNext(now) {
				nB++
				for pk, exit := p.DequeueNext(now); pk != nil; pk, exit = p.DequeueNext(now) {
					b = append(b, rec{p.ID(), pk.Seq, exit})
				}
				hB.Update(p)
			}

			if nA != nB || len(a) != len(b) {
				t.Fatalf("seed %d step %d: wrappers drained %d pipes / %d packets, loops %d / %d", seed, step, nA, len(a), nB, len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d step %d: delivery %d is %+v through the wrappers, %+v through the loops", seed, step, i, a[i], b[i])
				}
			}
			for i, p := range psA {
				q := psB[i]
				if p.Delivered != q.Delivered || p.BytesOut != q.BytesOut || p.red != q.red ||
					len(p.q) != len(q.q) || p.head != q.head || p.txHead != q.txHead {
					t.Fatalf("seed %d step %d: pipe %d diverged:\n wrappers %d pkts %d B red %+v q[%d:%d:%d]\n loops    %d pkts %d B red %+v q[%d:%d:%d]",
						seed, step, i, p.Delivered, p.BytesOut, p.red, p.head, p.txHead, len(p.q),
						q.Delivered, q.BytesOut, q.red, q.head, q.txHead, len(q.q))
				}
				if p.red.idle && p.red.idleSince == now && p.params.RED != nil {
					redIdles++
				}
			}
			if psA[0].head < headBefore && psA[0].Len() > 0 {
				compactions++
			}
			if len(hA.items) != len(hB.items) {
				t.Fatalf("seed %d step %d: heaps track %d and %d pipes", seed, step, len(hA.items), len(hB.items))
			}
			for i, it := range hA.items {
				if o := hB.items[i]; it.pipe.ID() != o.pipe.ID() || it.deadline != o.deadline {
					t.Fatalf("seed %d step %d: heap slot %d differs", seed, step, i)
				}
			}
		}
		if compactions == 0 || redIdles == 0 {
			t.Fatalf("seed %d: test premise: %d live-queue compactions and %d RED idle marks happened", seed, compactions, redIdles)
		}
	}
}

// The per-hop pipe work — Enqueue, Update, PopReady, DequeueReady, Update —
// allocates nothing once queues and heap have reached their working size.
func TestHeapHopPathAllocs(t *testing.T) {
	const nPipes = 16
	ps := make([]*Pipe, nPipes)
	for i := range ps {
		ps[i] = New(ID(i), Params{BandwidthBps: 1e9, Latency: 50 * vtime.Microsecond, QueuePkts: 100}, 1)
	}
	h := NewHeap()
	var pool PacketPool
	now := vtime.Time(0)
	recycle := func(pkt *Packet, _ vtime.Time) { pool.Put(pkt) }
	drain := func(p *Pipe) {
		p.DequeueReady(now, recycle)
		h.Update(p)
	}
	i := 0
	step := func() {
		i++
		now = now.Add(vtime.Microsecond)
		p := ps[i%nPipes]
		pkt := pool.Get()
		pkt.Size = 1000
		if reason, _ := p.Enqueue(pkt, now); reason != DropNone {
			t.Fatalf("unexpected drop: %v", reason)
		}
		h.Update(p)
		h.PopReady(now, drain)
	}
	for w := 0; w < 5000; w++ {
		step()
	}
	if h.Len() == 0 {
		t.Fatal("test premise: the heap should stay populated")
	}
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		t.Fatalf("Enqueue+Update+PopReady+DequeueReady: %v allocs per step, want 0", n)
	}
}

// BenchmarkHeapPopReinsert is the heap's share of a ring hop: 330 tracked
// pipes, the earliest popped and re-inserted with a later deadline.
func BenchmarkHeapPopReinsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := NewHeap()
	for i := 0; i < 330; i++ {
		p := bareWithDeadline(ID(i), vtime.Time(rng.Intn(1_000_000)))
		h.Update(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := h.Min()
		p := h.PopNext(now)
		p.q[0].exit = now + vtime.Time(rng.Intn(1_000_000)+1)
		h.Update(p)
	}
}
