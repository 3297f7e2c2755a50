package parcore

import (
	"testing"
	"time"

	"modelnet/internal/vtime"
)

// fakeShard is a single-shard Transport with a scripted event list, enough
// to observe a paced Drive's wall-clock behavior without an emulator.
type fakeShard struct {
	clock   vtime.Time
	events  []vtime.Time // pending, ascending
	ranAt   []time.Time  // wall instants events fired
	windows int
}

func (f *fakeShard) Cores() int { return 1 }

func (f *fakeShard) Step(cmds []Cmd) ([]Report, error) {
	c := cmds[0]
	var rep Report
	if c.Grant >= 0 {
		for len(f.events) > 0 && f.events[0] <= c.Grant {
			f.events = f.events[1:]
			f.ranAt = append(f.ranAt, time.Now())
			rep.Progressed = c.Drain
		}
		if !c.Drain {
			f.windows++
			if c.Grant > f.clock {
				f.clock = c.Grant
			}
		}
	}
	// No cross-shard traffic ever: Safe is unconstrained.
	rep.Bounds = Bounds{Next: vtime.Forever, Safe: vtime.Forever}
	if len(f.events) > 0 {
		rep.Next = f.events[0]
	}
	return []Report{rep}, nil
}

// drivePaced is Drive on the fixed algebra under pacing (nil = unpaced).
func drivePaced(tr Transport, st *SyncStats, deadline vtime.Time, pace *Pacing) error {
	return Drive(tr, st, deadline, DriveOpts{Mode: SyncFixed, Pace: pace})
}

func TestDrivePacedSlavesToWallClock(t *testing.T) {
	f := &fakeShard{events: []vtime.Time{vtime.Time(30 * vtime.Millisecond)}}
	var st SyncStats
	begin := time.Now()
	err := drivePaced(f, &st, vtime.Time(60*vtime.Millisecond), &Pacing{Quantum: 5 * vtime.Millisecond})
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
	if f.clock != vtime.Time(60*vtime.Millisecond) {
		t.Fatalf("final clock %v, want the deadline", f.clock)
	}
	// Idle stretches are paced in quantum-sized windows, not one jump.
	if f.windows < 5 {
		t.Fatalf("only %d windows over 60ms at a 5ms quantum", f.windows)
	}
}

func TestDrivePacedIdlesToDeadline(t *testing.T) {
	// No events at all: an unpaced drive would return immediately; a paced
	// one must idle to the deadline (live ingress could arrive any time).
	f := &fakeShard{}
	var st SyncStats
	begin := time.Now()
	if err := drivePaced(f, &st, vtime.Time(40*vtime.Millisecond), &Pacing{Quantum: 10 * vtime.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed < 40*time.Millisecond {
		t.Fatalf("quiescent paced drive returned after %v, want ≥ 40ms", elapsed)
	}
	if f.windows == 0 {
		t.Fatal("idling must still run windows (they are the ingress admission points)")
	}
}

func TestDrivePacedRejectsForever(t *testing.T) {
	var st SyncStats
	if err := drivePaced(&fakeShard{}, &st, vtime.Forever, &Pacing{}); err == nil {
		t.Fatal("paced drive with an infinite deadline must error")
	}
}

func TestDrivePacedNilPacingIsDrive(t *testing.T) {
	f := &fakeShard{events: []vtime.Time{vtime.Time(5 * vtime.Millisecond)}}
	var st SyncStats
	begin := time.Now()
	if err := drivePaced(f, &st, vtime.Time(1000*vtime.Millisecond), nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > 500*time.Millisecond {
		t.Fatalf("unpaced drive took %v of wall time for 1s of virtual time", elapsed)
	}
	if len(f.ranAt) != 1 {
		t.Fatalf("fired %d events, want 1", len(f.ranAt))
	}
}
