package parcore

import (
	"reflect"
	"testing"
	"time"

	"modelnet/internal/vtime"
)

const ms = vtime.Millisecond

// fakeShards is a k-shard Transport with a scripted event list per shard,
// enough to observe Drive's grants and its wall-clock behavior without an
// emulator. A shard reports Next = its earliest pending event and one Safe
// bound for all its peers, Next + its lookahead (Forever when idle) — never a
// SafeTo vector, and nothing is ever in flight.
type fakeShards struct {
	events [][]vtime.Time // pending per shard, ascending
	look   vtime.Duration // every shard's lookahead
	begin  time.Time      // taken just before Drive starts its own clock

	ranAt  []time.Time     // wall instants events fired
	grants [][]vtime.Time  // every window's grant vector
	wallAt []time.Duration // wall time since begin at each window
	drains []vtime.Time    // every drain turn's target
}

// newFake builds a fake cluster of len(events) shards sharing one lookahead.
func newFake(look vtime.Duration, events ...[]vtime.Time) *fakeShards {
	return &fakeShards{events: events, look: look, begin: time.Now()}
}

func (f *fakeShards) Cores() int { return len(f.events) }

func (f *fakeShards) Step(cmds []Cmd) ([]Report, error) {
	switch c := cmds[0]; {
	case c.Drain:
		f.drains = append(f.drains, c.Grant)
	case c.Grant >= 0:
		g := make([]vtime.Time, len(cmds))
		for j := range cmds {
			g[j] = cmds[j].Grant
		}
		f.grants = append(f.grants, g)
		f.wallAt = append(f.wallAt, time.Since(f.begin))
	}
	reps := make([]Report, len(cmds))
	for j, c := range cmds {
		ev := f.events[j]
		for c.Grant >= 0 && len(ev) > 0 && ev[0] <= c.Grant {
			ev = ev[1:]
			f.ranAt = append(f.ranAt, time.Now())
			reps[j].Progressed = c.Drain
		}
		f.events[j] = ev
		reps[j].Bounds = Bounds{Next: vtime.Forever, Safe: vtime.Forever}
		if len(ev) > 0 {
			reps[j].Bounds = Bounds{Next: ev[0], Safe: ev[0].Add(f.look)}
		}
	}
	return reps, nil
}

// drivePaced is Drive with no reaction chain under pacing (nil = unpaced).
func drivePaced(tr Transport, st *SyncStats, deadline vtime.Time, pace *Pacing) error {
	return Drive(tr, st, deadline, DriveOpts{Pace: pace})
}

func TestDrivePacedSlavesToWallClock(t *testing.T) {
	f := newFake(0, []vtime.Time{vtime.Time(30 * ms)})
	var st SyncStats
	begin := time.Now()
	err := drivePaced(f, &st, vtime.Time(60*ms), &Pacing{Quantum: 5 * ms})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	// The drive may not finish before the wall clock reaches the deadline,
	// and the event may not fire before its own virtual time has elapsed
	// on the wall clock.
	if elapsed < 60*time.Millisecond {
		t.Fatalf("paced drive returned after %v, deadline is 60ms of wall time", elapsed)
	}
	if len(f.ranAt) != 1 {
		t.Fatalf("fired %d events, want 1", len(f.ranAt))
	}
	if at := f.ranAt[0].Sub(begin); at < 30*time.Millisecond {
		t.Fatalf("event at virtual 30ms fired after only %v of wall time", at)
	}
	if last := f.grants[len(f.grants)-1][0]; last != vtime.Time(60*ms) {
		t.Fatalf("final window ends at %v, want the deadline", last)
	}
	// Idle stretches are paced in quantum-sized windows, not one jump.
	if len(f.grants) < 5 {
		t.Fatalf("only %d windows over 60ms at a 5ms quantum", len(f.grants))
	}
}

func TestDrivePacedIdlesToDeadline(t *testing.T) {
	// No events at all: an unpaced drive would return immediately; a paced
	// one must idle to the deadline (live ingress could arrive any time).
	f := newFake(0, nil)
	var st SyncStats
	begin := time.Now()
	if err := drivePaced(f, &st, vtime.Time(40*ms), &Pacing{Quantum: 10 * ms}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed < 40*time.Millisecond {
		t.Fatalf("quiescent paced drive returned after %v, want ≥ 40ms", elapsed)
	}
	if len(f.grants) == 0 {
		t.Fatal("idling must still run windows (they are the ingress admission points)")
	}
}

func TestDrivePacedRejectsForever(t *testing.T) {
	var st SyncStats
	if err := drivePaced(newFake(0, nil), &st, vtime.Forever, &Pacing{}); err == nil {
		t.Fatal("paced drive with an infinite deadline must error")
	}
}

func TestDrivePacedNilPacingIsDrive(t *testing.T) {
	f := newFake(0, []vtime.Time{vtime.Time(5 * ms)})
	var st SyncStats
	begin := time.Now()
	if err := drivePaced(f, &st, vtime.Time(1000*ms), nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > 500*time.Millisecond {
		t.Fatalf("unpaced drive took %v of wall time for 1s of virtual time", elapsed)
	}
	if len(f.ranAt) != 1 {
		t.Fatalf("fired %d events, want 1", len(f.ranAt))
	}
}

// TestDriveDegenerateInputs pins what the one grant loop does on its
// degenerate inputs — shards that report a single Safe bound and no reaction
// chain — against grant sequences worked out by hand from the uniform-window
// rule: every shard runs to min over shards of Safe, minus one tick, no
// further than the deadline; when that excludes the very next event, drain it.
func TestDriveDegenerateInputs(t *testing.T) {
	at := func(v ...int64) []vtime.Time {
		out := make([]vtime.Time, len(v))
		for i, x := range v {
			out[i] = vtime.Time(x * int64(ms))
		}
		return out
	}
	uniform := func(k int, bounds ...vtime.Time) [][]vtime.Time {
		out := make([][]vtime.Time, len(bounds))
		for i, b := range bounds {
			for j := 0; j < k; j++ {
				out[i] = append(out[i], b)
			}
		}
		return out
	}
	const deadline = vtime.Time(60 * ms)
	cases := []struct {
		name   string
		look   vtime.Duration
		events [][]vtime.Time
		grants [][]vtime.Time
		drains []vtime.Time
		serial uint64
	}{
		{
			// Safe = (15, 30): horizon 15, so window 1 ends at 15ms-1 and
			// fires shard 0's 10. Then Safe = (45, 30): 30ms-1 fires shard
			// 1's 25. Then (45, ∞): 45ms-1 fires the 40. Nothing is left, so
			// the last window advances both clocks to the deadline.
			name: "two shards, uniform windows", look: 5 * ms,
			events: [][]vtime.Time{at(10, 40), at(25)},
			grants: uniform(2, vtime.Time(15*ms)-1, vtime.Time(30*ms)-1, vtime.Time(45*ms)-1, deadline),
		},
		{
			// A third shard with an event at 12 changes no horizon: its Safe
			// (17) is never the minimum while shard 0's 15 stands, and its 12
			// fires inside window 1. Same sequence, three wide.
			name: "three shards, uniform windows", look: 5 * ms,
			events: [][]vtime.Time{at(10, 40), at(25), at(12)},
			grants: uniform(3, vtime.Time(15*ms)-1, vtime.Time(30*ms)-1, vtime.Time(45*ms)-1, deadline),
		},
		{
			// One shard has no peer to wait for: A[0] is unconstrained and
			// the first window already runs to the deadline; the closing
			// window repeats it.
			name: "one shard runs straight to the deadline", look: 0,
			events: [][]vtime.Time{at(10, 40)},
			grants: uniform(1, deadline, deadline),
		},
		{
			// Zero lookahead: Safe = Next = 10, so the window would end at
			// 10ms-1 and reach nothing. The instant is drained instead — one
			// turn that fires the event, one that finds nothing more — and
			// the run closes at the deadline.
			name: "zero lookahead drains the instant", look: 0,
			events: [][]vtime.Time{at(10), nil},
			grants: uniform(2, deadline),
			drains: at(10, 10), serial: 1,
		},
	}
	for _, c := range cases {
		f := newFake(c.look, c.events...)
		var st SyncStats
		if err := Drive(f, &st, deadline, DriveOpts{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(f.grants, c.grants) {
			t.Errorf("%s: grants\n got  %v\n want %v", c.name, f.grants, c.grants)
		}
		if !reflect.DeepEqual(f.drains, c.drains) {
			t.Errorf("%s: drains = %v, want %v", c.name, f.drains, c.drains)
		}
		if st.SerialRounds != c.serial || int(st.Windows) != len(c.grants) {
			t.Errorf("%s: stats count %d windows, %d serial rounds; want %d, %d",
				c.name, st.Windows, st.SerialRounds, len(c.grants), c.serial)
		}
		for j, ev := range f.events {
			if len(ev) != 0 {
				t.Errorf("%s: shard %d left %v unfired", c.name, j, ev)
			}
		}
	}
}

// TestDrivePacedGrantsAreClampedNotReplaced: pacing clamps the grants the
// loop would have issued anyway to one quantum past the wall clock — after
// deciding whether anything can fire. An idle stretch before a far-off event
// is therefore crossed in quantum-sized windows, each an admission point for
// live ingress; clamping before that decision would find nothing reachable
// and sleep through the stretch in one drain.
func TestDrivePacedGrantsAreClampedNotReplaced(t *testing.T) {
	const (
		quantum  = 5 * ms
		stretch  = 40 * ms
		deadline = vtime.Time(60 * ms)
	)
	f := newFake(5*ms, []vtime.Time{vtime.Time(stretch)}, nil, nil)
	var st SyncStats
	if err := Drive(f, &st, deadline, DriveOpts{Pace: &Pacing{Quantum: quantum}}); err != nil {
		t.Fatal(err)
	}
	if len(f.ranAt) != 1 {
		t.Fatalf("fired %d events, want 1", len(f.ranAt))
	}
	before := 0 // windows released while the far event was still pending
	for i, g := range f.grants {
		for j := range g {
			// f.begin predates Drive's own clock, so this wall reading is
			// no earlier than the one the grant was clamped against.
			if lim := vtime.Time(f.wallAt[i]).Add(quantum); g[j] > lim {
				t.Errorf("window %d: shard %d granted %v, past wall+quantum = %v", i, j, g[j], lim)
			}
			if i > 0 && g[j] < f.grants[i-1][j] {
				t.Errorf("window %d: shard %d grant regressed %v -> %v", i, j, f.grants[i-1][j], g[j])
			}
		}
		if g[0] < vtime.Time(stretch) {
			before++
		}
	}
	// Nominally stretch/quantum = 8 windows; sleep overshoot lengthens each
	// one, so half of that is the bar. Clamp-before-the-test yields at most
	// one.
	if want := int(stretch / quantum / 2); before < want || len(f.drains) != 0 {
		t.Errorf("%d windows (and drains %v) before the event at %v, want ≥ %d windows and no drain: the idle stretch lost its admission points",
			before, f.drains, vtime.Time(stretch), want)
	}
}
