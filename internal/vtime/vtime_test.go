package vtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("clock = %v, want 30", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order at %d: %v", i, v)
		}
	}
}

func TestScheduleDuringRun(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.At(10, func() {
		got = append(got, s.Now())
		s.After(5, func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v, want [10 15]", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	id := s.At(10, func() { fired = true })
	if !s.Cancel(id) {
		t.Error("first cancel should report true")
	}
	if s.Cancel(id) {
		t.Error("second cancel should report false")
	}
	s.Run()
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	id := s.At(10, func() {})
	s.Run()
	if s.Cancel(id) {
		t.Error("cancel after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5,10 only", fired)
	}
	if s.Now() != 12 {
		t.Errorf("clock = %v, want 12 (deadline)", s.Now())
	}
	s.RunFor(8)
	if len(fired) != 4 {
		t.Fatalf("after RunFor fired %v, want 4 events", fired)
	}
	if s.Now() != 20 {
		t.Errorf("clock = %v, want 20", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("fired %d events after Stop, want 3", count)
	}
	if s.Pending() != 7 {
		t.Errorf("pending = %d, want 7", s.Pending())
	}
}

func TestStepEmpty(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Error("Step on empty scheduler should report false")
	}
}

func TestTimerResetAndStop(t *testing.T) {
	s := NewScheduler()
	tm := NewTaggedTimer(s, NoTag)
	fired := 0
	tm.Reset(10, func() { fired++ })
	tm.Reset(20, func() { fired += 100 }) // supersedes the first arming
	s.Run()
	if fired != 100 {
		t.Fatalf("fired = %d, want only second arming (100)", fired)
	}
	if tm.Armed() {
		t.Error("timer still armed after fire")
	}
	tm.Reset(10, func() { fired++ })
	if !tm.StopTimer() {
		t.Error("StopTimer on armed timer should report true")
	}
	s.Run()
	if fired != 100 {
		t.Errorf("stopped timer fired (count %d)", fired)
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	tk := NewTicker(s, 10, nil)
	ticks := 0
	tk.fn = func() {
		ticks++
		if ticks == 5 {
			tk.Stop()
		}
	}
	tk.Start()
	s.RunUntil(1000)
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if s.Now() != 1000 {
		t.Errorf("clock = %v, want 1000", s.Now())
	}
}

func TestTickerCadence(t *testing.T) {
	s := NewScheduler()
	var at []Time
	tk := NewTicker(s, 7, nil)
	tk.fn = func() { at = append(at, s.Now()) }
	tk.Start()
	s.RunUntil(30)
	want := []Time{7, 14, 21, 28}
	if len(at) != len(want) {
		t.Fatalf("ticks at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", at, want)
		}
	}
}

// Property: events always fire in nondecreasing time order regardless of the
// insertion order, and every scheduled (uncanceled) event fires exactly once.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// Multiset equality with inputs.
		want := make([]Time, len(times))
		for i, raw := range times {
			want[i] = Time(raw)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: canceling a random subset leaves exactly the complement to fire.
func TestCancelSubsetProperty(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		count := int(n%64) + 1
		ids := make([]EventID, count)
		fired := make([]bool, count)
		for i := 0; i < count; i++ {
			i := i
			ids[i] = s.At(Time(rng.Intn(100)), func() { fired[i] = true })
		}
		canceled := make([]bool, count)
		for i := 0; i < count; i++ {
			if rng.Intn(2) == 0 {
				canceled[i] = s.Cancel(ids[i])
			}
		}
		s.Run()
		for i := 0; i < count; i++ {
			if fired[i] == canceled[i] {
				return false // must fire iff not canceled
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, Time) {
		s := NewScheduler()
		rng := rand.New(rand.NewSource(42))
		var last Time
		var recur func()
		recur = func() {
			last = s.Now()
			if s.Fired() < 1000 {
				s.After(Duration(rng.Intn(50)+1), recur)
			}
		}
		s.After(1, recur)
		s.Run()
		return s.Fired(), last
	}
	f1, t1 := run()
	f2, t2 := run()
	if f1 != f2 || t1 != t2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", f1, t1, f2, t2)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(3 * Second).Add(500 * Millisecond)
	if tm.Seconds() != 3.5 {
		t.Errorf("Seconds = %v, want 3.5", tm.Seconds())
	}
	if d := tm.Sub(Time(1 * Second)); d != 2500*Millisecond {
		t.Errorf("Sub = %v, want 2.5s", d)
	}
	if DurationOf(0.25) != 250*Millisecond {
		t.Errorf("DurationOf(0.25) = %v", DurationOf(0.25))
	}
	if (1500 * Microsecond).Micros() != 1500 {
		t.Errorf("Micros = %v", (1500 * Microsecond).Micros())
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		var recur func()
		recur = func() { s.After(Duration(rng.Intn(1000)+1), recur) }
		s.After(Duration(rng.Intn(1000)+1), recur)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
