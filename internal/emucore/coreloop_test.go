package emucore

// runCore is two plain loops over pipes.Heap.PopNext and
// pipes.Pipe.DequeueNext. This test holds it to the loop it replaced —
// PopReady(DequeueReady(advance)) — where the two could differ: under a
// non-zero tick, when one activation finds several pipes due and some of
// them hold several due packets.

import (
	"testing"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

type delivery struct {
	seq uint64
	at  vtime.Time
}

// runCoreThroughWrappers is runCore written with the closure-taking
// wrappers, as it was before the primitives existed. It sets *busy when an
// activation drains three or more pipes, one of them holding several due
// packets: the test's premise.
func runCoreThroughWrappers(e *Emulator, c *core, busy *bool) {
	now := e.sched.Now()
	c.pendingAt = vtime.Forever
	multiPacketPipes := 0
	nPipes := c.heap.PopReady(now, func(p *pipes.Pipe) {
		n := p.DequeueReady(now, func(pkt *pipes.Packet, exactExit vtime.Time) {
			e.advance(c, pkt, exactExit, now)
		})
		if n > 1 {
			multiPacketPipes++
		}
		c.heap.Update(p)
	})
	if nPipes >= 3 && multiPacketPipes >= 1 {
		*busy = true
	}
	e.scheduleCore(c)
}

func TestCoreLoopMatchesWrappersUnderTick(t *testing.T) {
	run := func(nCores int, prof Profile, wrappers bool) ([]delivery, Totals, bool) {
		g := topology.Ring(4, 3, attrs(100, 0.13), attrs(100, 0.07))
		e, sched, _ := fixture(t, g, nCores, prof)
		busy := false
		if wrappers {
			for _, c := range e.cores {
				c := c
				c.run = func() { runCoreThroughWrappers(e, c, &busy) }
			}
		}
		var log []delivery
		e.OnDeliver = func(pkt *pipes.Packet, at vtime.Time) { log = append(log, delivery{pkt.Seq, at}) }
		// Every VN sends bursts of three back-to-back packets across the
		// ring: a burst leaves a pipe within one tick, and twelve senders
		// keep several pipes due in the same tick.
		for round := 0; round < 20; round++ {
			sched.At(vtime.Time(round)*vtime.Time(330*vtime.Microsecond), func() {
				for v := 0; v < 12; v++ {
					for k := 0; k < 3; k++ {
						e.Inject(pipes.VN(v), pipes.VN((v+6)%12), 200, nil)
					}
				}
			})
		}
		sched.Run()
		return log, e.Totals(), busy
	}
	tickOnly := Profile{Tick: DefaultTick}
	for _, tc := range []struct {
		name   string
		nCores int
		prof   Profile
	}{
		{"tick", 1, tickOnly},
		{"tick-2cores", 2, tickOnly},
		{"hardware", 1, DefaultProfile()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantTotals, busy := run(tc.nCores, tc.prof, true)
			got, gotTotals, _ := run(tc.nCores, tc.prof, false)
			if !busy {
				t.Fatal("test premise: no activation drained 3+ pipes with one holding several due packets")
			}
			if wantTotals.Delivered == 0 || gotTotals != wantTotals {
				t.Fatalf("totals: loops %+v, wrappers %+v", gotTotals, wantTotals)
			}
			if len(got) != len(want) {
				t.Fatalf("loops delivered %d packets, wrappers %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: loops %+v, wrappers %+v", i, got[i], want[i])
				}
			}
		})
	}
}
