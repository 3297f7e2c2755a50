package vtime

import (
	"fmt"
	"math"
)

// Time is an absolute virtual time in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration's unit so the usual constants read naturally.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a time later than any reachable virtual time.
const Forever = Time(math.MaxInt64)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (t Time) String() string { return fmt.Sprintf("t+%.6fs", t.Seconds()) }

func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// DurationOf converts floating-point seconds to a Duration.
func DurationOf(seconds float64) Duration { return Duration(seconds * float64(Second)) }

// NoTag marks an event with no owner claim: parallel runtimes must assume
// its callback can act anywhere on the shard.
const NoTag = int32(-1)

// event is one scheduled callback. Records are recycled: when an event
// fires or is canceled its record goes onto the scheduler's free list and the
// next At reuses it, so a steady-state run allocates no events at all.
type event struct {
	at  Time
	seq uint64 // tie-break so same-time events fire in schedule order
	// gen counts how many times this record has left the heap. An EventID
	// remembers the gen it was issued under, so ids of earlier occupants can
	// never touch the record's current one.
	gen   uint64
	fn    func()
	index int32 // heap position while pending
	tag   int32 // owner claim (a VN), or NoTag
}

// before is the scheduler's one ordering: strictly by (at, seq). seq is
// unique per scheduler, so the order is total and the firing sequence does
// not depend on how the heap happens to be laid out.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// EventID identifies a scheduled event so it can be canceled. It goes stale
// the moment the event fires or is canceled — including for the event's own
// callback — and a stale id is inert: Cancel ignores it, NextEventTimeExcept
// excludes nothing, and it compares unequal to every id ScanPending reports.
// The zero EventID is stale.
type EventID struct {
	ev  *event
	gen uint64
}

// live reports whether id still names a pending event.
func (id EventID) live() bool { return id.ev != nil && id.ev.gen == id.gen }

// Scheduler is a deterministic single-threaded discrete-event scheduler.
// It is not safe for concurrent use, reads included (they close a deferred
// pop, see vacant); the emulator is a single logical process, exactly like
// the paper's kernel module.
type Scheduler struct {
	now    Time
	seq    uint64
	events []*event // binary min-heap by (at, seq); events[i].index == i
	// vacant is 1 + the heap position a fire or Cancel emptied and nothing has
	// filled yet (that slot holds nil), 0 when the heap is whole. The pop is
	// deferred because the usual next call is an At for a nearby time — the
	// callback re-arming itself — and seating that event in the vacated slot
	// is a sift of a level or two, where moving the tail in and appending
	// would be two of full depth. At most one slot is open, it is never the
	// last one, and everything that reads the pending set closes it first
	// (settle), so nothing outside this file can tell.
	vacant  int
	free    []*event // recycled records; never more than the peak of Pending
	stopped bool
	fired   uint64
	local   any // see Local
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Local returns the scheduler's loop-local slot: one opaque value for state
// that belongs to the event loop rather than to any object scheduled on it.
// "Driven by the same Scheduler" is what "runs on the same goroutine" means
// in every execution mode, so state reached through the slot needs no lock
// and no package-level registry. The slot has one owner, internal/netstack,
// which keeps its Segment free list there; nil until SetLocal.
func (s *Scheduler) Local() any { return s.local }

// SetLocal fills the loop-local slot (see Local).
func (s *Scheduler) SetLocal(v any) { s.local = v }

// Fired reports how many events have executed, a useful determinism probe.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many events are scheduled but not yet fired.
func (s *Scheduler) Pending() int {
	s.settle()
	return len(s.events)
}

// NextEventTime returns the time of the earliest scheduled event, or Forever
// when none are pending. Together with RunUntil this forms the
// bounded-advance API used by parallel runtimes (internal/parcore): a
// coordinator peeks each scheduler's horizon, computes a safe bound, and
// lets every scheduler advance independently up to it.
func (s *Scheduler) NextEventTime() Time {
	s.settle()
	if len(s.events) == 0 {
		return Forever
	}
	return s.events[0].at
}

// At schedules fn to run at absolute time at. Scheduling in the past is a
// programming error and panics: virtual time never runs backwards.
func (s *Scheduler) At(at Time, fn func()) EventID {
	return s.AtTagged(at, NoTag, fn)
}

// AtTagged is At with an owner claim: tag (a VN number) asserts that the
// callback injects traffic only at that VN. Parallel runtimes price the
// pending event's earliest cross-shard consequence with the tagged VN's own
// crossing distance instead of the shard-wide minimum, which is what lets a
// shard whose only pending work sits deep in its interior report a far
// horizon. Tagging an event that can inject elsewhere is unsound — the
// receiving shard's event-ordering check will reject the resulting
// late-announced message deterministically.
func (s *Scheduler) AtTagged(at Time, tag int32, fn func()) EventID {
	if at < s.now {
		panic(fmt.Sprintf("vtime: schedule at %v before now %v", at, s.now))
	}
	ev := s.push(at, s.seq, tag, fn)
	s.seq++
	return EventID{ev, ev.gen}
}

// push takes a record off the free list (or allocates the scheduler's next
// one), fills it, and sifts it into the heap: from the vacant slot when one
// is open, else from a new tail slot.
func (s *Scheduler) push(at Time, seq uint64, tag int32, fn func()) *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.tag, ev.fn = at, seq, tag, fn
	if i := s.vacant - 1; i >= 0 {
		s.vacant = 0
		s.seat(ev, i)
	} else {
		s.events = append(s.events, ev)
		s.up(ev, len(s.events)-1)
	}
	return ev
}

// remove takes a pending event out of the heap, retires every EventID issued
// for it, and recycles its record. Its slot is left vacant for the next push
// unless it was the last one.
func (s *Scheduler) remove(ev *event) {
	s.settle() // may move ev: its index is read after
	i, n := int(ev.index), len(s.events)-1
	s.events[i] = nil
	if i == n {
		s.events = s.events[:n]
	} else {
		s.vacant = i + 1
	}
	ev.gen++
	ev.fn = nil
	s.free = append(s.free, ev)
}

// settle makes the heap whole before it is read.
func (s *Scheduler) settle() {
	if s.vacant != 0 {
		s.closeVacant()
	}
}

// closeVacant is the classic second half of a heap pop: the tail event moves
// into the vacant slot.
func (s *Scheduler) closeVacant() {
	i, n := s.vacant-1, len(s.events)-1
	s.vacant = 0
	last := s.events[n]
	s.events[n] = nil
	s.events = s.events[:n]
	s.seat(last, i)
}

// seat places ev into the empty heap position i: down if a child fires
// before it, else up.
func (s *Scheduler) seat(ev *event, i int) {
	if s.down(ev, i) == i {
		s.up(ev, i)
	}
}

// up places ev at heap position i or above, shifting later-firing ancestors
// down into the hole.
func (s *Scheduler) up(ev *event, i int) {
	h := s.events
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
}

// down places ev at heap position i or below, shifting earlier-firing
// children up into the hole, and returns where ev landed.
func (s *Scheduler) down(ev *event, i int) int {
	h := s.events
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		h[i].index = int32(i)
		i = c
	}
	h[i] = ev
	ev.index = int32(i)
	return i
}

// ScanPending visits every pending event with its time, owner tag, and ID,
// in unspecified order. O(pending). Parallel runtimes fold the pending set
// into their safe-advance bounds.
func (s *Scheduler) ScanPending(visit func(at Time, tag int32, id EventID)) {
	s.settle()
	for _, ev := range s.events {
		visit(ev.at, ev.tag, EventID{ev, ev.gen})
	}
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Cancel removes a scheduled event. Canceling an already-fired or
// already-canceled event is a no-op. Reports whether the event was removed.
func (s *Scheduler) Cancel(id EventID) bool {
	if !id.live() {
		return false
	}
	s.remove(id.ev)
	return true
}

// Step fires the single earliest event, advancing the clock to it.
// Reports false when no events remain.
func (s *Scheduler) Step() bool {
	s.settle()
	if len(s.events) == 0 {
		return false
	}
	ev := s.events[0]
	fn := ev.fn
	s.now = ev.at
	s.fired++
	// The record is recycled before the callback runs, so whatever the
	// callback schedules first reuses it; the fired event's id is already
	// stale by then — and so is its heap slot, the root, which an event the
	// callback arms for a nearby time will barely leave.
	s.remove(ev)
	fn()
	return true
}

// Run fires events until none remain or Stop is called.
func (s *Scheduler) Run() {
	s.RunUntil(Forever)
}

// RunUntil fires events with time ≤ deadline, then sets the clock to the
// deadline (if it was reached). Events scheduled during the run participate.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped && s.NextEventTime() <= deadline {
		if !s.Step() {
			break // nothing pending, and the deadline is Forever
		}
	}
	if !s.stopped && deadline != Forever && s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the clock by d, firing everything due in between.
func (s *Scheduler) RunFor(d Duration) {
	s.RunUntil(s.now.Add(d))
}

// Stop halts a Run in progress after the current event returns.
func (s *Scheduler) Stop() { s.stopped = true }
