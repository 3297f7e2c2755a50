package pipes

import (
	"math/rand"
	"reflect"
	"testing"

	"modelnet/internal/vtime"
)

// driveRandomly offers a random packet mix to the pipe over [start, end),
// interleaving dequeues, and returns a log of every observable outcome.
// The traffic is a pure function of rng, so two pipes driven with
// identically-seeded rngs see identical offered loads.
func driveRandomly(p *Pipe, rng *rand.Rand, start, end vtime.Time, log *[]string) {
	for now := start; now < end; now = now.Add(vtime.Duration(rng.Intn(3)+1) * vtime.Millisecond) {
		if rng.Intn(4) == 0 {
			n := p.DequeueReady(now, func(pk *Packet, exit vtime.Time) {
				*log = append(*log, "out "+exit.String())
			})
			_ = n
			continue
		}
		pk := &Packet{Seq: uint64(now), Size: rng.Intn(1400) + 100}
		reason, exit := p.Enqueue(pk, now)
		if reason == DropNone {
			*log = append(*log, "in "+exit.String())
		} else {
			*log = append(*log, "drop "+reason.String())
		}
	}
	p.DequeueReady(end, func(pk *Packet, exit vtime.Time) {
		*log = append(*log, "out "+exit.String())
	})
}

// TestPipeSnapshotRestoreEquivalence is the satellite property test: drive
// an occupied, lossy, RED-managed pipe partway; snapshot it; restore onto a
// fresh pipe; continue both under identical offered load; demand identical
// outcomes — including random loss decisions (draw position), RED state,
// and the FIFO lastExit clamp.
func TestPipeSnapshotRestoreEquivalence(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		params := Params{
			BandwidthBps: 8e6,
			Latency:      5 * vtime.Millisecond,
			LossRate:     0.2,
			QueuePkts:    12,
		}
		if trial%2 == 1 {
			params.RED = defaultRED(12)
		}
		seed := int64(1000 + trial)
		ref := New(ID(trial), params, seed)

		refTraffic := rand.New(rand.NewSource(int64(trial) * 7))
		var refLog []string
		mid := vtime.Time(40 * vtime.Millisecond)
		end := vtime.Time(120 * vtime.Millisecond)
		driveRandomly(ref, refTraffic, 0, mid, &refLog)

		st := ref.Snapshot()
		if len(st.Entries) == 0 && ref.Len() > 0 {
			t.Fatalf("trial %d: snapshot lost in-flight entries", trial)
		}

		restored := New(ID(trial), params, seed)
		if err := restored.Restore(st); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}

		// Same downstream traffic for both: reseed a traffic rng and replay
		// the pre-snapshot portion into a sink to advance it identically.
		gotTraffic := rand.New(rand.NewSource(int64(trial) * 7))
		var sink []string
		sinkPipe := New(ID(trial), params, seed)
		driveRandomly(sinkPipe, gotTraffic, 0, mid, &sink)
		if !reflect.DeepEqual(sink, refLog) {
			t.Fatalf("trial %d: traffic replay not deterministic", trial)
		}

		preLen := len(refLog)
		var gotLog []string
		driveRandomly(ref, refTraffic, mid, end, &refLog)
		driveRandomly(restored, gotTraffic, mid, end, &gotLog)
		if !reflect.DeepEqual(refLog[preLen:], gotLog) {
			t.Fatalf("trial %d: outcomes diverge after restore:\nref: %v\ngot: %v",
				trial, refLog[preLen:], gotLog)
		}
		if ref.Accepted != restored.Accepted || ref.Delivered != restored.Delivered ||
			ref.Drops != restored.Drops || ref.BytesOut != restored.BytesOut ||
			ref.lastExit != restored.lastExit || ref.draws != restored.draws {
			t.Fatalf("trial %d: counters diverge: %+v vs %+v", trial, ref, restored)
		}
	}
}

// TestPipeSnapshotLastExitClamp pins that the FIFO delay-line clamp state
// survives restore: a latency cut right after restore must still queue the
// new packet behind the old lastExit, exactly as on the original pipe.
func TestPipeSnapshotLastExitClamp(t *testing.T) {
	params := mkParams(100, 50*vtime.Millisecond, 10)
	ref := New(1, params, 9)
	ref.Enqueue(pkt(1000), 0) // exits ~50ms
	st := ref.Snapshot()

	restored := New(1, params, 9)
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	cut := params
	cut.Latency = vtime.Millisecond
	for _, p := range []*Pipe{ref, restored} {
		p.SetParams(cut)
		_, exit := p.Enqueue(pkt(1000), vtime.Time(2*vtime.Millisecond))
		if exit < st.LastExit {
			t.Fatalf("clamp lost: exit %v < lastExit %v", exit, st.LastExit)
		}
	}
	re := ref.q[ref.head].exit // the head packets' scheduled exits
	ge := restored.q[restored.head].exit
	if re != ge {
		t.Fatalf("head exits diverge: %v vs %v", re, ge)
	}
}

func TestPipeRestoreRejectsDirtyOrBadState(t *testing.T) {
	params := mkParams(100, vtime.Millisecond, 10)
	dirty := New(1, params, 3)
	dirty.Enqueue(pkt(100), 0)
	if err := dirty.Restore(State{}); err == nil {
		t.Fatal("restore on a dirty pipe should fail")
	}
	bad := State{Entries: []EntryState{
		{Pkt: pkt(10), Exit: 20},
		{Pkt: pkt(10), Exit: 10}, // not FIFO
	}}
	if err := New(1, params, 3).Restore(bad); err == nil {
		t.Fatal("non-FIFO entries should fail")
	}
	if err := New(1, params, 3).Restore(State{Entries: []EntryState{{Exit: 5}}}); err == nil {
		t.Fatal("nil packet should fail")
	}
}
