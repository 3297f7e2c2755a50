package pipes

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelnet/internal/vtime"
)

// defaultRED returns conventional RED parameters scaled to a queue capacity.
func defaultRED(queuePkts int) *REDParams {
	if queuePkts <= 0 {
		queuePkts = DefaultQueuePkts
	}
	return &REDParams{
		MinThresh: float64(queuePkts) * 0.25,
		MaxThresh: float64(queuePkts) * 0.75,
		MaxP:      0.1,
		Weight:    0.002,
	}
}

func mkParams(mbps float64, lat vtime.Duration, qcap int) Params {
	return Params{BandwidthBps: mbps * 1e6, Latency: lat, QueuePkts: qcap}
}

func pkt(size int) *Packet { return &Packet{Size: size} }

func TestPipeBasicTiming(t *testing.T) {
	// 8 Mb/s, 10 ms latency: a 1000-byte packet transmits in 1 ms,
	// exits at 11 ms.
	p := New(0, mkParams(8, 10*vtime.Millisecond, 10), 1)
	reason, exit := p.Enqueue(pkt(1000), 0)
	if reason != DropNone {
		t.Fatalf("dropped: %v", reason)
	}
	want := vtime.Time(11 * vtime.Millisecond)
	if exit != want {
		t.Fatalf("exit = %v, want %v", exit, want)
	}
	if d := p.NextDeadline(); d != want {
		t.Fatalf("deadline = %v, want %v", d, want)
	}
	n := p.DequeueReady(want, func(*Packet, vtime.Time) {})
	if n != 1 {
		t.Fatalf("delivered %d", n)
	}
	if p.NextDeadline() != vtime.Forever {
		t.Error("empty pipe deadline not Forever")
	}
}

func TestPipeSerialization(t *testing.T) {
	// Two back-to-back packets: second waits for the first's transmission
	// (but latency overlaps — that's the delay line).
	p := New(0, mkParams(8, 10*vtime.Millisecond, 10), 1)
	_, exit1 := p.Enqueue(pkt(1000), 0)
	_, exit2 := p.Enqueue(pkt(1000), 0)
	if exit1 != vtime.Time(11*vtime.Millisecond) {
		t.Errorf("exit1 = %v", exit1)
	}
	if exit2 != vtime.Time(12*vtime.Millisecond) {
		t.Errorf("exit2 = %v, want 12ms (serialized tx, pipelined latency)", exit2)
	}
}

func TestPipeIdleGap(t *testing.T) {
	p := New(0, mkParams(8, vtime.Duration(0), 10), 1)
	_, e1 := p.Enqueue(pkt(1000), 0)
	p.DequeueReady(e1, func(*Packet, vtime.Time) {})
	// After idle, transmission starts at arrival, not at lastTxDone.
	_, e2 := p.Enqueue(pkt(1000), vtime.Time(50*vtime.Millisecond))
	want := vtime.Time(51 * vtime.Millisecond)
	if e2 != want {
		t.Errorf("exit after idle = %v, want %v", e2, want)
	}
}

func TestPipeOverflow(t *testing.T) {
	// Queue cap 3. Saturate instantaneously: packets beyond cap drop.
	p := New(0, mkParams(1, 0, 3), 1)
	drops := 0
	for i := 0; i < 10; i++ {
		if r, _ := p.Enqueue(pkt(1500), 0); r == DropBacklog {
			drops++
		}
	}
	if drops != 7 {
		t.Errorf("drops = %d, want 7 (cap 3)", drops)
	}
	if p.Drops[DropBacklog] != 7 {
		t.Errorf("stat drops = %d", p.Drops[DropBacklog])
	}
}

func TestPipeQueueDrains(t *testing.T) {
	// After the transmission queue drains, new packets are accepted again.
	p := New(0, mkParams(12, 0, 2), 1) // 1500B = 1ms at 12Mb/s
	p.Enqueue(pkt(1500), 0)
	p.Enqueue(pkt(1500), 0)
	if r, _ := p.Enqueue(pkt(1500), 0); r != DropBacklog {
		t.Fatal("third packet at t=0 should overflow")
	}
	// At t=1ms the first tx is done; one slot frees.
	if r, _ := p.Enqueue(pkt(1500), vtime.Time(1*vtime.Millisecond)); r != DropNone {
		t.Fatal("packet after drain should be accepted")
	}
}

func TestPipeRandomLoss(t *testing.T) {
	params := mkParams(1000, 0, 1<<20)
	params.LossRate = 0.3
	p := New(0, params, 42)
	const n = 20000
	lost := 0
	for i := 0; i < n; i++ {
		if r, _ := p.Enqueue(pkt(100), 0); r == DropRandomLoss {
			lost++
		}
	}
	got := float64(lost) / n
	if got < 0.27 || got > 0.33 {
		t.Errorf("loss fraction %.3f, want ≈0.3", got)
	}
}

func TestPipeFIFOOrder(t *testing.T) {
	p := New(0, mkParams(100, vtime.Duration(5*vtime.Millisecond), 1000), 1)
	var sent []uint64
	for i := 0; i < 50; i++ {
		pk := pkt(100 + i*10)
		pk.Seq = uint64(i)
		sent = append(sent, pk.Seq)
		p.Enqueue(pk, vtime.Time(i))
	}
	var got []uint64
	p.DequeueReady(vtime.Forever-1, func(pk *Packet, _ vtime.Time) { got = append(got, pk.Seq) })
	if len(got) != len(sent) {
		t.Fatalf("delivered %d of %d", len(got), len(sent))
	}
	for i := range got {
		if got[i] != sent[i] {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestSetParamsAffectsNewPackets(t *testing.T) {
	p := New(0, mkParams(8, 0, 10), 1)
	_, e1 := p.Enqueue(pkt(1000), 0) // 1ms at 8Mb/s
	p.SetParams(mkParams(4, 0, 10))
	_, e2 := p.Enqueue(pkt(1000), 0) // 2ms at 4Mb/s, queued behind first
	if e1 != vtime.Time(1*vtime.Millisecond) {
		t.Errorf("e1 = %v", e1)
	}
	if e2 != vtime.Time(3*vtime.Millisecond) {
		t.Errorf("e2 = %v, want 3ms", e2)
	}
}

// Zero, negative, NaN, and +Inf bandwidth all mean "infinite bandwidth":
// transmission is instantaneous and only latency delays the packet. The
// naive division would yield +Inf or NaN exit times; NaN in particular
// escapes a plain `txTime < 0` clamp because NaN comparisons are false.
func TestPipeDegenerateBandwidth(t *testing.T) {
	lat := 10 * vtime.Millisecond
	for _, bw := range []float64{0, -5e6, math.NaN(), math.Inf(1)} {
		p := New(0, Params{BandwidthBps: bw, Latency: lat, QueuePkts: 10}, 1)
		r, exit := p.Enqueue(pkt(1500), vtime.Time(vtime.Millisecond))
		if r != DropNone {
			t.Fatalf("bw=%v: dropped: %v", bw, r)
		}
		want := vtime.Time(11 * vtime.Millisecond) // arrival + latency only
		if exit != want {
			t.Errorf("bw=%v: exit = %v, want %v", bw, exit, want)
		}
		// The pipe must stay usable: a second packet also transmits
		// instantly (no poisoned lastTxDone).
		if _, exit2 := p.Enqueue(pkt(1500), vtime.Time(vtime.Millisecond)); exit2 != want {
			t.Errorf("bw=%v: second exit = %v, want %v", bw, exit2, want)
		}
		if n := p.DequeueReady(want, func(*Packet, vtime.Time) {}); n != 2 {
			t.Errorf("bw=%v: delivered %d of 2", bw, n)
		}
	}
}

// The documented SetParams contract: in-flight packets keep the schedule
// they were assigned on entry — a parameter change never reschedules them.
func TestSetParamsKeepsInFlightSchedule(t *testing.T) {
	p := New(0, mkParams(8, 10*vtime.Millisecond, 10), 1)
	_, e1 := p.Enqueue(pkt(1000), 0) // tx 1ms, exit 11ms
	_, e2 := p.Enqueue(pkt(1000), 0) // tx done 2ms, exit 12ms
	// Slash bandwidth and latency while both packets are inside.
	p.SetParams(mkParams(0.001, 500*vtime.Millisecond, 10))
	if d := p.NextDeadline(); d != e1 {
		t.Errorf("deadline moved after SetParams: %v, want %v", d, e1)
	}
	var exits []vtime.Time
	p.DequeueReady(vtime.Forever-1, func(_ *Packet, at vtime.Time) { exits = append(exits, at) })
	if len(exits) != 2 || exits[0] != e1 || exits[1] != e2 {
		t.Errorf("exits = %v, want [%v %v]", exits, e1, e2)
	}
}

// A latency cut mid-queue must not let a later packet exit the pipe before
// an earlier one: the delay line is FIFO (as in dummynet), so the later
// packet's exit clamps to the earlier packet's. Execution modes that forward
// each packet at its own exit time (eager cross-shard handoff) and the
// sequential head-of-line dequeuer only agree under this invariant.
func TestSetParamsLatencyCutKeepsFIFO(t *testing.T) {
	p := New(0, mkParams(8, 10*vtime.Millisecond, 10), 1)
	_, e1 := p.Enqueue(pkt(1000), 0) // tx 1ms, exit 11ms
	p.SetParams(mkParams(8, 1*vtime.Millisecond, 10))
	_, e2 := p.Enqueue(pkt(1000), 0) // would exit 3ms; clamps to 11ms
	if e2 < e1 {
		t.Fatalf("latency cut reordered exits: e2 %v < e1 %v", e2, e1)
	}
	if e2 != e1 {
		t.Errorf("e2 = %v, want clamped to e1 %v", e2, e1)
	}
	// A third packet after the backlog exits under the new latency, still
	// in order: txStart 2ms, tx 1ms, +1ms latency = 4ms, clamped to 11ms.
	_, e3 := p.Enqueue(pkt(1000), 0)
	if e3 != e1 {
		t.Errorf("e3 = %v, want clamped to %v", e3, e1)
	}
	// Deliveries pop in FIFO order at their exact (clamped) exits.
	var exits []vtime.Time
	p.DequeueReady(vtime.Forever-1, func(_ *Packet, at vtime.Time) { exits = append(exits, at) })
	if len(exits) != 3 || exits[0] != e1 || exits[1] != e2 || exits[2] != e3 {
		t.Errorf("exits = %v, want [%v %v %v]", exits, e1, e2, e3)
	}
}

// When bandwidth drops mid-queue, lastTxDone (set under the old rate) still
// serializes the next packet: its transmission starts when the queued bytes
// finish at the old rate, and proceeds at the new rate.
func TestSetParamsLastTxDoneOnBandwidthDrop(t *testing.T) {
	p := New(0, mkParams(8, 0, 10), 1)
	p.Enqueue(pkt(1000), 0) // tx done at 1ms (8 Mb/s)
	p.Enqueue(pkt(1000), 0) // tx done at 2ms
	p.SetParams(mkParams(2, 0, 10))
	// New packet waits for the old-rate backlog (2ms), then takes 4ms at
	// the new 2 Mb/s: exit 6ms.
	_, e3 := p.Enqueue(pkt(1000), 0)
	if want := vtime.Time(6 * vtime.Millisecond); e3 != want {
		t.Errorf("e3 = %v, want %v", e3, want)
	}
	// And lastTxDone was advanced under the new rate for the one after.
	_, e4 := p.Enqueue(pkt(1000), 0)
	if want := vtime.Time(10 * vtime.Millisecond); e4 != want {
		t.Errorf("e4 = %v, want %v", e4, want)
	}
}

// A down link blackholes new packets but lets in-flight ones drain on their
// original schedule; recovery restores normal service.
func TestPipeLinkDown(t *testing.T) {
	up := mkParams(8, 10*vtime.Millisecond, 10)
	p := New(0, up, 1)
	_, e1 := p.Enqueue(pkt(1000), 0)
	down := up
	down.Down = true
	p.SetParams(down)
	if r, _ := p.Enqueue(pkt(1000), 0); r != DropLinkDown {
		t.Fatalf("enqueue on down link: %v, want DropLinkDown", r)
	}
	if p.Drops[DropLinkDown] != 1 || p.TotalDrops() != 1 {
		t.Errorf("drop counters: down=%d total=%d", p.Drops[DropLinkDown], p.TotalDrops())
	}
	// The in-flight packet still exits on schedule.
	if n := p.DequeueReady(e1, func(*Packet, vtime.Time) {}); n != 1 {
		t.Fatalf("in-flight packet did not drain: %d", n)
	}
	// Recovery: the link carries traffic again, transmitter idle.
	p.SetParams(up)
	now := vtime.Time(20 * vtime.Millisecond)
	r, exit := p.Enqueue(pkt(1000), now)
	if r != DropNone {
		t.Fatalf("enqueue after recovery: %v", r)
	}
	if want := now.Add(11 * vtime.Millisecond); exit != want {
		t.Errorf("post-recovery exit = %v, want %v", exit, want)
	}
	if s := DropLinkDown.String(); s != "link-down" {
		t.Errorf("DropLinkDown.String() = %q", s)
	}
}

// Property: conservation — every enqueued packet is either delivered or
// counted as dropped, and deliveries are in exit-time order.
func TestPipeConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		params := mkParams(1+rng.Float64()*99, vtime.Duration(rng.Intn(int(10*vtime.Millisecond))), rng.Intn(20)+1)
		params.LossRate = rng.Float64() * 0.2
		p := New(ID(seed&0xff), params, seed)
		now := vtime.Time(0)
		accepted := 0
		for i := 0; i < n; i++ {
			now = now.Add(vtime.Duration(rng.Intn(int(vtime.Millisecond))))
			if r, _ := p.Enqueue(pkt(rng.Intn(1400)+100), now); r == DropNone {
				accepted++
			}
		}
		var lastExit vtime.Time
		delivered := 0
		for {
			d := p.NextDeadline()
			if d == vtime.Forever {
				break
			}
			if d < lastExit {
				return false
			}
			lastExit = d
			delivered += p.DequeueReady(d, func(*Packet, vtime.Time) {})
		}
		if delivered != accepted {
			return false
		}
		return p.Accepted == uint64(accepted) &&
			uint64(n-accepted) == p.TotalDrops()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: exit times always ≥ arrival + size/bw + latency (never faster
// than physics allows).
func TestPipeNeverFasterThanLink(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		params := mkParams(1+rng.Float64()*999, vtime.Duration(rng.Intn(int(50*vtime.Millisecond))), 1000)
		p := New(0, params, seed)
		now := vtime.Time(0)
		for i := 0; i < 100; i++ {
			now = now.Add(vtime.Duration(rng.Intn(int(2 * vtime.Millisecond))))
			size := rng.Intn(1400) + 64
			r, exit := p.Enqueue(pkt(size), now)
			if r != DropNone {
				continue
			}
			minExit := now.
				Add(vtime.Duration(float64(size*8) / params.BandwidthBps * float64(vtime.Second))).
				Add(params.Latency)
			if exit < minExit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestREDDropsEarly(t *testing.T) {
	params := mkParams(1, 0, 100) // slow pipe, builds queue
	params.RED = defaultRED(100)
	p := New(0, params, 7)
	redDrops := 0
	overflow := 0
	// Offer far more than the pipe can carry; RED should kick in before
	// the queue hard-fills.
	now := vtime.Time(0)
	for i := 0; i < 5000; i++ {
		now = now.Add(vtime.Duration(10 * vtime.Microsecond))
		switch r, _ := p.Enqueue(pkt(1500), now); r {
		case DropRED:
			redDrops++
		case DropBacklog:
			overflow++
		}
	}
	if redDrops == 0 {
		t.Error("RED never dropped under sustained overload")
	}
}

func TestREDIdleDecay(t *testing.T) {
	params := mkParams(1, 0, 100)
	params.RED = defaultRED(100)
	p := New(0, params, 7)
	now := vtime.Time(0)
	for i := 0; i < 2000; i++ {
		now = now.Add(vtime.Duration(10 * vtime.Microsecond))
		p.Enqueue(pkt(1500), now)
	}
	avgLoaded := p.red.avg
	// Drain fully and wait a long idle period.
	now = now.Add(60 * vtime.Second)
	p.DequeueReady(now, func(*Packet, vtime.Time) {})
	now = now.Add(10 * vtime.Second)
	p.Enqueue(pkt(100), now)
	if p.red.avg >= avgLoaded/2 {
		t.Errorf("RED average did not decay over idle: %v -> %v", avgLoaded, p.red.avg)
	}
}

func TestHeapOrdering(t *testing.T) {
	h := NewHeap()
	var ps []*Pipe
	for i := 0; i < 20; i++ {
		p := New(ID(i), mkParams(8, vtime.Duration(i+1)*vtime.Millisecond, 100), 1)
		p.Enqueue(pkt(1000), 0)
		ps = append(ps, p)
		h.Update(p)
	}
	if h.Len() != 20 {
		t.Fatalf("heap len %d", h.Len())
	}
	// Pipe 0 has the smallest latency; min deadline should be pipe 0's.
	if h.Min() != ps[0].NextDeadline() {
		t.Errorf("min = %v, want %v", h.Min(), ps[0].NextDeadline())
	}
	// Pop everything in order.
	var last vtime.Time
	count := 0
	for h.Len() > 0 {
		now := h.Min()
		if now < last {
			t.Fatal("heap order violated")
		}
		last = now
		h.PopReady(now, func(p *Pipe) {
			p.DequeueReady(now, func(*Packet, vtime.Time) {})
			count++
			h.Update(p) // empty now; should not reinsert
		})
	}
	if count != 20 {
		t.Errorf("visited %d pipes", count)
	}
}

func TestHeapUpdateMoves(t *testing.T) {
	h := NewHeap()
	a := New(1, mkParams(8, 10*vtime.Millisecond, 100), 1)
	b := New(2, mkParams(8, 20*vtime.Millisecond, 100), 1)
	a.Enqueue(pkt(1000), 0)
	b.Enqueue(pkt(1000), 0)
	h.Update(a)
	h.Update(b)
	if h.Min() != a.NextDeadline() {
		t.Fatal("a should be min")
	}
	// Drain a, give it a later packet; heap should now lead with b.
	a.DequeueReady(a.NextDeadline(), func(*Packet, vtime.Time) {})
	a.Enqueue(pkt(1000), vtime.Time(100*vtime.Millisecond))
	h.Update(a)
	if h.Min() != b.NextDeadline() {
		t.Errorf("min = %v, want b's %v", h.Min(), b.NextDeadline())
	}
}

// Property: heap Min always equals the true minimum deadline across live pipes.
func TestHeapMinProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap()
		var ps []*Pipe
		for i := 0; i < 30; i++ {
			p := New(ID(i), mkParams(1+rng.Float64()*100, vtime.Duration(rng.Intn(int(20*vtime.Millisecond))), 100), seed+int64(i))
			ps = append(ps, p)
		}
		now := vtime.Time(0)
		for step := 0; step < 200; step++ {
			p := ps[rng.Intn(len(ps))]
			switch rng.Intn(3) {
			case 0, 1:
				p.Enqueue(pkt(rng.Intn(1400)+100), now)
				h.Update(p)
			case 2:
				d := p.NextDeadline()
				if d != vtime.Forever {
					if d > now {
						now = d
					}
					p.DequeueReady(now, func(*Packet, vtime.Time) {})
					h.Update(p)
				}
			}
			// Verify Min invariant.
			want := vtime.Forever
			for _, q := range ps {
				if d := q.NextDeadline(); d < want {
					want = d
				}
			}
			if h.Min() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPipeEnqueueDequeue(b *testing.B) {
	p := New(0, mkParams(1000, vtime.Duration(vtime.Millisecond), 1<<20), 1)
	pk := pkt(1500)
	now := vtime.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(12 * vtime.Microsecond)
		p.Enqueue(pk, now)
		p.DequeueReady(now, func(*Packet, vtime.Time) {})
	}
}
