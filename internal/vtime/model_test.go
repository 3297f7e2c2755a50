package vtime

// The scheduler against its executable specification. The model is a list of
// pending events of which the earliest (at, seq) fires first; the harness
// drives both with the same operations and, after every one, inspects the
// scheduler's heap directly — without closing a vacant slot, so a slot left
// open by one operation is still open when the next one runs. The same
// harness serves the randomized differential, the scripted open-slot
// sequences, and FuzzSchedulerOps.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// modelEvent is one pending event of the reference model.
type modelEvent struct {
	at  Time
	seq uint64
	tag int32
}

// model is the executable specification of Scheduler.
type model struct {
	now     Time
	seq     uint64
	fired   uint64
	pending []modelEvent
}

// rearmOf makes every fourth event behave like the core's activation: when
// it fires, its callback arms a successor a few ticks (possibly zero) ahead.
// A pure function of seq, so it survives Snapshot→Restore and the model and
// the scheduler's callbacks agree on it without talking.
func rearmOf(seq uint64) (Duration, bool) {
	return Duration(seq % 3), seq%4 == 1
}

func (m *model) sorted() []modelEvent {
	out := append([]modelEvent(nil), m.pending...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].seq < out[j].seq
	})
	return out
}

func (m *model) drop(seq uint64) bool {
	for i, ev := range m.pending {
		if ev.seq == seq {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (m *model) schedule(at Time, tag int32) {
	m.pending = append(m.pending, modelEvent{at: at, seq: m.seq, tag: tag})
	m.seq++
}

// next is the earliest pending time, Forever when nothing is pending.
func (m *model) next() Time {
	if len(m.pending) == 0 {
		return Forever
	}
	return m.sorted()[0].at
}

// fire runs the earliest event and returns its seq.
func (m *model) fire() uint64 {
	next := m.sorted()[0]
	m.drop(next.seq)
	m.now = next.at
	m.fired++
	if d, ok := rearmOf(next.seq); ok {
		m.schedule(m.now.Add(d), NoTag)
	}
	return next.seq
}

// runUntil mirrors Scheduler.RunUntil with a Stop issued by the stopAfter-th
// callback (0 = never) and returns the seqs fired.
func (m *model) runUntil(deadline Time, stopAfter int) []uint64 {
	var fired []uint64
	stopped := false
	for !stopped && len(m.pending) > 0 && m.next() <= deadline {
		fired = append(fired, m.fire())
		stopped = len(fired) == stopAfter
	}
	if !stopped && m.now < deadline {
		m.now = deadline
	}
	return fired
}

func (m *model) state() SchedulerState {
	st := SchedulerState{Now: m.now, Seq: m.seq, Fired: m.fired, Events: []EventState{}}
	for _, ev := range m.sorted() {
		st.Events = append(st.Events, EventState{At: ev.at, Seq: ev.seq, Tag: ev.tag})
	}
	return st
}

// Operations of the harness; each takes two argument bytes.
const (
	opAt       = iota // arm at now + a%20 (dense: many ties), tag from b
	opCancel          // cancel issued id number a<<8|b, live or stale
	opStep            // fire one event
	opRunUntil        // RunUntil(now + a%20), Stop from the (b%4)-th callback
	opSnapshot        // Snapshot must equal the model's state
	opRestore         // Snapshot → Restore into a fresh scheduler, carry on there
	opNext            // NextEventTime
	opScan            // ScanPending
	opPending         // Pending
	numOps
)

// harness drives a scheduler and the model in lockstep.
type harness struct {
	t         testing.TB
	s         *Scheduler
	m         model
	ids       map[uint64]EventID // every id issued on s, by seq
	issued    []uint64           // the same seqs, for picking one; stale ones stay
	firedSeq  []uint64           // what the scheduler's callbacks ran
	stopAfter int                // callbacks left until one calls Stop; 0 = none
	peak      int                // most events ever pending on s
}

func newHarness(t testing.TB) *harness {
	return &harness{t: t, s: NewScheduler(), ids: map[uint64]EventID{}}
}

func (h *harness) callback(seq uint64) func() {
	return func() {
		h.firedSeq = append(h.firedSeq, seq)
		if d, ok := rearmOf(seq); ok {
			h.arm(h.s.Now().Add(d), NoTag)
		}
		if h.stopAfter > 0 {
			if h.stopAfter--; h.stopAfter == 0 {
				h.s.Stop()
			}
		}
	}
}

// arm schedules on the scheduler (the model is advanced by its own methods).
func (h *harness) arm(at Time, tag int32) {
	seq := h.s.seq
	var id EventID
	if tag == NoTag {
		id = h.s.At(at, h.callback(seq))
	} else {
		id = h.s.AtTagged(at, tag, h.callback(seq))
	}
	h.ids[seq] = id
	h.issued = append(h.issued, seq)
}

// pick returns the seq of an issued id, or one that was never issued.
func (h *harness) pick(a, b byte) uint64 {
	if len(h.issued) == 0 {
		return ^uint64(0)
	}
	return h.issued[(int(a)<<8|int(b))%len(h.issued)]
}

func (h *harness) expectFired(what string, n int, want []uint64) {
	h.t.Helper()
	if got := h.firedSeq[n:]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		h.t.Fatalf("%s fired %v, model says %v", what, got, want)
	}
}

func (h *harness) do(op, a, b byte) {
	h.t.Helper()
	s, m := h.s, &h.m
	switch op % numOps {
	case opAt:
		tag := NoTag
		if b%2 == 1 {
			tag = int32(b % 5)
		}
		at := m.now + Time(a%20)
		h.arm(at, tag)
		m.schedule(at, tag)
	case opCancel:
		seq := h.pick(a, b)
		want := m.drop(seq)
		if got := s.Cancel(h.ids[seq]); got != want {
			h.t.Fatalf("Cancel(seq %d) = %v, model says %v", seq, got, want)
		}
	case opStep:
		n := len(h.firedSeq)
		if len(m.pending) == 0 {
			if s.Step() {
				h.t.Fatal("Step fired with nothing pending in the model")
			}
			return
		}
		want := m.fire()
		if !s.Step() {
			h.t.Fatalf("Step = false, model fires seq %d", want)
		}
		h.expectFired("Step", n, []uint64{want})
	case opRunUntil:
		n := len(h.firedSeq)
		deadline := m.now + Time(a%20)
		h.stopAfter = int(b % 4)
		want := m.runUntil(deadline, h.stopAfter)
		s.RunUntil(deadline)
		h.stopAfter = 0
		h.expectFired("RunUntil", n, want)
	case opSnapshot:
		if got, want := s.Snapshot(), m.state(); !reflect.DeepEqual(got, want) {
			h.t.Fatalf("Snapshot diverged\n got %+v\nwant %+v", got, want)
		}
	case opRestore:
		// Every id issued so far is foreign to the fresh scheduler.
		fresh := NewScheduler()
		if err := fresh.Restore(s.Snapshot(), func(es EventState) func() { return h.callback(es.Seq) }); err != nil {
			h.t.Fatalf("restore: %v", err)
		}
		h.s = fresh
		h.ids = map[uint64]EventID{}
		h.issued = h.issued[:0]
		h.peak = len(m.pending)
		fresh.ScanPending(func(_ Time, _ int32, id EventID) {
			h.ids[id.ev.seq] = id
			h.issued = append(h.issued, id.ev.seq)
		})
	case opNext:
		if got, want := s.NextEventTime(), m.next(); got != want {
			h.t.Fatalf("NextEventTime = %v, model says %v", got, want)
		}
	case opScan:
		got := []EventState{}
		s.ScanPending(func(at Time, tag int32, id EventID) {
			if !id.live() || id != h.ids[id.ev.seq] {
				h.t.Fatalf("ScanPending reported id %+v, issued %+v", id, h.ids[id.ev.seq])
			}
			got = append(got, EventState{At: at, Seq: id.ev.seq, Tag: tag})
		})
		sortStates(got)
		if want := m.state().Events; !reflect.DeepEqual(got, want) {
			h.t.Fatalf("ScanPending visited %+v, model has %+v", got, want)
		}
	case opPending:
		if got := s.Pending(); got != len(m.pending) {
			h.t.Fatalf("Pending = %d, model has %d", got, len(m.pending))
		}
	}
}

func sortStates(es []EventState) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].At != es[j].At {
			return es[i].At < es[j].At
		}
		return es[i].Seq < es[j].Seq
	})
}

// check inspects the scheduler's fields without calling anything that would
// close a vacant slot: the heap is a heap over its occupied slots, every
// event knows its index, the vacant slot (if any) is empty and not the last,
// no more records exist than were ever pending at once, and clock, counters
// and pending set are the model's.
func (h *harness) check() {
	h.t.Helper()
	s, m := h.s, &h.m
	if len(m.pending) > h.peak {
		h.peak = len(m.pending)
	}
	v := s.vacant - 1
	if v >= len(s.events)-1 && v >= 0 {
		h.t.Fatalf("vacant slot %d is not inside a heap of %d slots", v, len(s.events))
	}
	got := []EventState{}
	for i, ev := range s.events {
		if i == v {
			if ev != nil {
				h.t.Fatalf("vacant slot %d holds an event (seq %d)", i, ev.seq)
			}
			continue
		}
		if ev == nil {
			h.t.Fatalf("slot %d is empty but not the vacant one (%d)", i, v)
		}
		if int(ev.index) != i {
			h.t.Fatalf("event seq %d in slot %d has index %d", ev.seq, i, ev.index)
		}
		if ev.fn == nil {
			h.t.Fatalf("pending event seq %d has no callback", ev.seq)
		}
		// Nearest occupied ancestor: the vacant slot's children answer to
		// its parent.
		if p := (i - 1) / 2; i > 0 {
			if p == v && p > 0 {
				p = (p - 1) / 2
			}
			if p != v && ev.before(s.events[p]) {
				h.t.Fatalf("heap order: slot %d (seq %d) fires before its ancestor in slot %d", i, ev.seq, p)
			}
		}
		got = append(got, EventState{At: ev.at, Seq: ev.seq, Tag: ev.tag})
	}
	if len(got) != len(m.pending) {
		h.t.Fatalf("%d events in the heap (slot open: %v), model has %d", len(got), v >= 0, len(m.pending))
	}
	for _, ev := range s.free {
		if ev.fn != nil {
			h.t.Fatalf("free record still holds seq %d's callback", ev.seq)
		}
	}
	if total := len(got) + len(s.free); total > h.peak {
		h.t.Fatalf("%d records exist, peak pending was %d", total, h.peak)
	}
	sortStates(got)
	raw := SchedulerState{Now: s.now, Seq: s.seq, Fired: s.fired, Events: got}
	if want := m.state(); !reflect.DeepEqual(raw, want) {
		h.t.Fatalf("state diverged\n got %+v\nwant %+v", raw, want)
	}
}

// TestSchedulerMatchesModel drives a scheduler and the model with the same
// random operation sequence. Ids are kept after they go stale and used again
// later, when their records have new occupants.
func TestSchedulerMatchesModel(t *testing.T) {
	// Cumulative weights out of 100, indexed by operation.
	weights := [numOps]int{opAt: 38, opCancel: 55, opStep: 75, opRunUntil: 80, opSnapshot: 83,
		opRestore: 85, opNext: 94, opScan: 97, opPending: 100}
	for trial := int64(0); trial < 30; trial++ {
		rng := rand.New(rand.NewSource(trial + 1))
		h := newHarness(t)
		openBefore := map[byte]int{} // op → times it ran on an open slot
		i, op := 0, byte(0)
		defer func() {
			if t.Failed() {
				t.Logf("at trial %d, operation %d (kind %d)", trial, i, op)
			}
		}()
		for ; i < 2000; i++ {
			r := rng.Intn(100)
			for op = 0; r >= weights[op]; op++ {
			}
			if h.s.vacant != 0 {
				openBefore[op]++
			}
			h.do(op, byte(rng.Intn(256)), byte(rng.Intn(256)))
			h.check()
		}
		for op := byte(0); op < numOps; op++ {
			if openBefore[op] == 0 {
				t.Fatalf("trial %d: operation %d never met an open slot", trial, op)
			}
		}
	}
}

// Eight events at now+0, +2, … +14 (seqs 0–7; 1 and 5 re-arm when fired),
// then a pair of operations the first of which leaves its slot open.
func openSlotScript(tail ...byte) []byte {
	var script []byte
	for i := byte(0); i < 8; i++ {
		script = append(script, opAt, 2*i, 0)
	}
	return append(script, tail...)
}

// The sequences in which something other than a push meets an open slot —
// open says whether the slot is indeed open when the last operation runs —
// and two where it must not be. They are also FuzzSchedulerOps' seed corpus.
var openSlotScripts = []struct {
	name string
	ops  []byte
	open bool
}{
	{"cancel-cancel", openSlotScript(opCancel, 0, 2, opCancel, 0, 6), true},
	{"cancel-snapshot", openSlotScript(opCancel, 0, 2, opSnapshot, 0, 0), true},
	{"cancel-restore", openSlotScript(opCancel, 0, 2, opRestore, 0, 0), true},
	{"step-nextevent", openSlotScript(opStep, 0, 0, opNext, 0, 0), true},
	{"step-step", openSlotScript(opStep, 0, 0, opStep, 0, 0), true},
	{"rununtil-stop-scan", openSlotScript(opRunUntil, 6, 1, opScan, 0, 0), true},
	{"rununtil-stop-pending", openSlotScript(opRunUntil, 6, 1, opPending, 0, 0), true},
	{"cancel-root-nextevent", openSlotScript(opCancel, 0, 0, opNext, 0, 0), true},
	{"rearm-fills-the-root", openSlotScript(opStep, 0, 0, opStep, 0, 0, opStep, 0, 0), false},
	{"cancel-tail-leaves-none", openSlotScript(opCancel, 0, 3, opAt, 1, 0, opCancel, 0, 7, opNext, 0, 0), false},
}

// play runs a script of (operation, a, b) triples, checking the heap after
// each; beforeLast, if set, runs just before the last operation.
func (h *harness) play(script []byte, beforeLast func()) {
	h.t.Helper()
	for i := 0; i+2 < len(script); i += 3 {
		if i+5 >= len(script) && beforeLast != nil {
			beforeLast()
		}
		h.do(script[i], script[i+1], script[i+2])
		h.check()
	}
}

func TestSchedulerOpenSlotSequences(t *testing.T) {
	for _, sc := range openSlotScripts {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			h := newHarness(t)
			h.play(sc.ops, func() {
				if open := h.s.vacant != 0; open != sc.open {
					t.Fatalf("test premise: slot open before the last operation = %v, want %v", open, sc.open)
				}
			})
			// Whatever the sequence left behind drains in model order.
			n := len(h.firedSeq)
			want := h.m.runUntil(Forever-1, 0)
			h.s.RunUntil(Forever - 1)
			h.expectFired("drain", n, want)
			h.check()
		})
	}
}

// FuzzSchedulerOps reads its input as (operation, a, b) triples for the
// harness; any divergence from the (at, seq)-sorted model, or a malformed
// heap after any operation, fails.
func FuzzSchedulerOps(f *testing.F) {
	for _, sc := range openSlotScripts {
		f.Add(sc.ops)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*4096 {
			t.Skip("longer than any interesting sequence")
		}
		newHarness(t).play(script, nil)
	})
}

// rearmFixture is the scheduler the core sees on the ring: pacing events far
// ahead (n-1 of them, at scattered times) and one activation at the root.
func rearmFixture(n int, fn func()) (*Scheduler, EventID) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(7))
	for i := 1; i < n; i++ {
		s.At(Time(1<<40+rng.Intn(1<<20)), func() {})
	}
	return s, s.At(1, fn)
}

// The re-arm the core does on every hop — the root leaves (canceled, or
// fired) and an event for just after now is armed — moves no other event:
// the newcomer takes the vacated root and stays there. With an eager pop the
// same pair moves about two heap depths of events (the tail sifted down from
// the root, the newcomer climbing back up).
func TestRearmNearMinMovesNothing(t *testing.T) {
	const n = 512
	slots := func(s *Scheduler) map[*event]int32 {
		at := map[*event]int32{}
		for _, ev := range s.events {
			at[ev] = ev.index
		}
		return at
	}
	moved := func(s *Scheduler, before map[*event]int32, except *event) int {
		k := 0
		for _, ev := range s.events {
			if ev != except && ev.index != before[ev] {
				k++
			}
		}
		return k
	}

	s, id := rearmFixture(n, func() {})
	for i := 0; i < 100; i++ {
		before := slots(s)
		if !s.Cancel(id) {
			t.Fatal("test premise: the activation should be pending")
		}
		id = s.At(s.Now()+Time(i+2), func() {})
		if k := moved(s, before, id.ev); k != 0 || id.ev.index != 0 {
			t.Fatalf("round %d: Cancel(root)+At(near) moved %d other events, newcomer in slot %d", i, k, id.ev.index)
		}
	}

	var recur func()
	s, _ = rearmFixture(n, func() { recur() })
	recur = func() { s.After(3, recur) }
	for i := 0; i < 100; i++ {
		before := slots(s)
		root := s.events[0]
		s.Step() // fires the activation, which re-arms itself (reusing its record)
		if k := moved(s, before, root); k != 0 || s.Pending() != n {
			t.Fatalf("round %d: fire+re-arm moved %d other events (%d pending)", i, k, s.Pending())
		}
	}
}

// BenchmarkSchedulerRearm is the shape BenchmarkSchedulerChurn does not
// have: 512 pending, and the one event that keeps leaving is the root,
// re-armed just after now — the core's activation between pacing timers.
func BenchmarkSchedulerRearm(b *testing.B) {
	fn := func() {}
	s, id := rearmFixture(512, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(id)
		id = s.At(Time(i+2), fn)
	}
}
