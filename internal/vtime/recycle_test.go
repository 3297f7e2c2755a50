package vtime

// Tests for what event recycling must not change: an EventID that has gone
// stale — fired, canceled, or held by its own running callback — can never
// reach the record's next occupant, and steady-state scheduling allocates
// nothing. (That the firing order is still exactly (at, seq) is
// model_test.go's differential.)

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFreeListBoundedByPeakPending: recycling must not hoard. Whatever the
// churn, records in existence never exceed the most that were ever pending
// at once.
func TestFreeListBoundedByPeakPending(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(9))
	peak := 0
	for round := 0; round < 200; round++ {
		for i := rng.Intn(50); i > 0; i-- {
			s.After(Duration(rng.Intn(100)), func() {})
		}
		if s.Pending() > peak {
			peak = s.Pending()
		}
		for i := rng.Intn(60); i > 0; i-- {
			s.Step()
		}
		if total := s.Pending() + len(s.free); total > peak {
			t.Fatalf("round %d: %d records exist, peak pending was %d", round, total, peak)
		}
	}
}

func TestStaleIDAfterFireCannotCancelSuccessor(t *testing.T) {
	s := NewScheduler()
	first := s.At(1, func() {})
	s.Step()
	ran := false
	second := s.At(2, func() { ran = true }) // reuses first's record
	if second.ev != first.ev {
		t.Fatal("test premise: the fired event's record should be recycled")
	}
	if s.Cancel(first) {
		t.Fatal("a fired event's id canceled something")
	}
	s.Run()
	if !ran {
		t.Fatal("the successor was canceled through its predecessor's id")
	}
}

func TestStaleIDAfterCancelCannotCancelSuccessor(t *testing.T) {
	s := NewScheduler()
	first := s.At(1, func() { t.Fatal("canceled event fired") })
	if !s.Cancel(first) {
		t.Fatal("first cancel failed")
	}
	ran := false
	second := s.At(1, func() { ran = true })
	if second.ev != first.ev {
		t.Fatal("test premise: the canceled event's record should be recycled")
	}
	if s.Cancel(first) {
		t.Fatal("second cancel through a stale id removed the successor")
	}
	s.Run()
	if !ran {
		t.Fatal("successor did not fire")
	}
}

// An event's id is already stale while its own callback runs: canceling it
// from inside must not touch whatever the callback scheduled first, which
// sits in the very same record.
func TestCancelSelfFromCallback(t *testing.T) {
	s := NewScheduler()
	var self EventID
	ran := false
	self = s.At(1, func() {
		next := s.At(2, func() { ran = true })
		if next.ev != self.ev {
			t.Fatal("test premise: the firing event's record should be recycled first")
		}
		if s.Cancel(self) {
			t.Fatal("an event canceled itself while running")
		}
	})
	s.Run()
	if !ran {
		t.Fatal("self-cancel removed the event scheduled from the callback")
	}
}

func TestTickerStopFromOwnCallback(t *testing.T) {
	s := NewScheduler()
	var tk *Ticker
	ticks, other := 0, 0
	tk = NewTicker(s, 10, func() {
		ticks++
		// Scheduled first, so it takes over the ticking event's record;
		// Stop then cancels the ticker's (stale) id.
		s.After(5, func() { other++ })
		tk.Stop()
	})
	tk.Start()
	s.Run()
	if ticks != 1 || other != 1 {
		t.Fatalf("ticks %d, bystander fired %d times; want 1 and 1", ticks, other)
	}
}

func TestTimerResetFromOwnCallback(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s)
	var fires []Time
	other := 0
	var onFire func()
	onFire = func() {
		fires = append(fires, s.Now())
		if len(fires) < 3 {
			s.After(1, func() { other++ }) // takes over the timer event's record
			tm.Reset(10, onFire)
		}
	}
	tm.Reset(10, onFire)
	s.Run()
	if !reflect.DeepEqual(fires, []Time{10, 20, 30}) || other != 2 {
		t.Fatalf("timer fired at %v, bystanders %d; want [10 20 30] and 2", fires, other)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after its last fire")
	}
}

// NextEventTimeExcept must exclude nothing for a stale id, even when the
// id's record has been recycled and now sits at the heap root.
func TestNextEventTimeExceptStaleRoot(t *testing.T) {
	s := NewScheduler()
	stale := s.At(1, func() {})
	s.At(50, func() {})
	s.Step()
	root := s.At(5, func() {}) // recycled record, new root
	if root.ev != stale.ev || s.events[0] != stale.ev {
		t.Fatal("test premise: the stale id's record should be the new root")
	}
	if got := s.NextEventTimeExcept(stale); got != 5 {
		t.Fatalf("NextEventTimeExcept(stale id) = %v, want the root's 5", got)
	}
	if got := s.NextEventTimeExcept(root); got != 50 {
		t.Fatalf("NextEventTimeExcept(root) = %v, want 50", got)
	}
	s.ScanPending(func(_ Time, _ int32, id EventID) {
		if id == stale {
			t.Fatal("ScanPending reported an id equal to a stale one")
		}
	})
}

// Steady state — every fired event schedules its successor — allocates
// nothing: records come off the free list and the callbacks are reused.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	var recur func()
	recur = func() { s.After(7, recur) }
	for i := 0; i < 64; i++ {
		s.AtTagged(Time(i), int32(i), recur)
	}
	s.RunUntil(1000) // grow the heap and the free list to their working size
	if n := testing.AllocsPerRun(1000, func() { s.Step() }); n != 0 {
		t.Fatalf("At+Step steady state: %v allocs per event, want 0", n)
	}
}

// Re-arming a Timer or running a Ticker allocates nothing either.
func TestTimerTickerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s)
	fire := func() {}
	tk := NewTicker(s, 3, func() { tm.Reset(100, fire) })
	tk.Start()
	s.RunUntil(100)
	if n := testing.AllocsPerRun(1000, func() { s.Step() }); n != 0 {
		t.Fatalf("Ticker period + Timer.Reset: %v allocs, want 0", n)
	}
}
