package dynamics

import (
	"fmt"
	"reflect"
	"testing"

	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// snapSpec is a deliberately awkward cursor workout: a looping trace profile
// (mid-cycle snapshots land between steps), a failure/recovery profile whose
// reconvergence delay pushes a reroute across its loop boundary, and a
// one-shot profile that is fully consumed before the snapshot.
func snapSpec() *Spec {
	bw := func(at vtime.Duration, mbps float64) Step {
		s := At(at)
		s.Bandwidth = mbps * 1e6
		return s
	}
	down := At(6 * vtime.Millisecond)
	down.Down = true
	up := At(8 * vtime.Millisecond)
	up.Up = true
	early := At(1 * vtime.Millisecond)
	early.Loss = 0.01
	return &Spec{
		Profiles: []Profile{
			{Link: 0, Steps: []Step{bw(0, 2), bw(4*vtime.Millisecond, 9)}, Loop: 10 * vtime.Millisecond},
			{Link: 1, Steps: []Step{down, up}, Loop: 10 * vtime.Millisecond},
			{Link: 2, Steps: []Step{early}},
		},
		Reroute:      true,
		RerouteDelay: 5 * vtime.Millisecond, // down@6 reroutes at 11: past the loop edge
	}
}

// paramsFingerprint renders every pipe's parameters plus the engine's
// observable state at the scheduler's current instant.
func paramsFingerprint(e *Engine) string {
	s := fmt.Sprintf("t=%v applied=%d reroutes=%d down=%v |", e.sched.Now(), e.Applied, e.Reroutes, e.downList())
	for id := 0; id < e.emu.NumPipes(); id++ {
		p := e.emu.Pipe(pipes.ID(id))
		if p == nil {
			continue
		}
		pr := p.Params()
		s += fmt.Sprintf(" %d:{%.0f %v %.3f %v}", id, pr.BandwidthBps, pr.Latency, pr.LossRate, pr.Down)
	}
	return s
}

// TestEngineSnapshotRestoreEquivalence is the satellite property test: run
// the spec partway (a mid-loop instant for every profile shape), snapshot
// the cursor, rebuild on a fresh scheduler + emulator carrying the same pipe
// parameters, and demand the two engines' observable timelines agree tick
// for tick through several further cycles.
func TestEngineSnapshotRestoreEquivalence(t *testing.T) {
	spec := snapSpec()
	for _, midMS := range []int{3, 5, 6, 7, 9, 10, 12} {
		mid := vtime.Time(midMS) * vtime.Time(vtime.Millisecond)
		g := topology.Line(2, attrs(8, 5))
		refEmu, refSched, _ := fixture(t, g)
		var refReroutes, gotReroutes []string
		ref, err := Attach(refSched, refEmu, spec)
		if err != nil {
			t.Fatal(err)
		}
		ref.onReroute = func(down []topology.LinkID) {
			refReroutes = append(refReroutes, fmt.Sprintf("%v@%v", down, refSched.Now()))
		}
		refSched.RunUntil(mid)
		st, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		gotEmu, gotSched, _ := fixture(t, g)
		gotSched.RunUntil(mid)
		for id := 0; id < refEmu.NumPipes(); id++ {
			if p := refEmu.Pipe(pipes.ID(id)); p != nil {
				gotEmu.SetPipeParams(pipes.ID(id), p.Params())
			}
		}
		got, err := AttachRestored(gotSched, gotEmu, spec, st)
		if err != nil {
			t.Fatalf("mid=%v: restore: %v", mid, err)
		}
		preReroutes := len(refReroutes)
		got.onReroute = func(down []topology.LinkID) {
			gotReroutes = append(gotReroutes, fmt.Sprintf("%v@%v", down, gotSched.Now()))
		}

		// Lockstep comparison at sub-step granularity over 3 more cycles.
		end := mid.Add(30 * vtime.Millisecond)
		for tick := mid; tick <= end; tick = tick.Add(500 * vtime.Microsecond) {
			refSched.RunUntil(tick)
			gotSched.RunUntil(tick)
			rf, gf := paramsFingerprint(ref), paramsFingerprint(got)
			if rf != gf {
				t.Fatalf("mid=%v: diverged at %v:\nref: %s\ngot: %s", mid, tick, rf, gf)
			}
		}
		if !reflect.DeepEqual(refReroutes[preReroutes:], gotReroutes) {
			t.Fatalf("mid=%v: reroute timelines diverge:\nref: %v\ngot: %v",
				mid, refReroutes[preReroutes:], gotReroutes)
		}
		// And the cursors agree going forward, too.
		rst, err1 := ref.Snapshot()
		gst, err2 := got.Snapshot()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(rst, gst) {
			t.Fatalf("mid=%v: final cursors diverge: %+v vs %+v (%v %v)", mid, rst, gst, err1, err2)
		}
	}
}

func TestAttachRestoredRejectsBadState(t *testing.T) {
	spec := snapSpec()
	g := topology.Line(2, attrs(8, 5))
	emu, sched, _ := fixture(t, g)
	if _, err := AttachRestored(sched, emu, nil, EngineState{}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := AttachRestored(sched, emu, spec, EngineState{Bases: make([]vtime.Time, 1)}); err == nil {
		t.Error("base/profile count mismatch accepted")
	}
	bad := EngineState{
		Bases:           make([]vtime.Time, len(spec.Profiles)),
		PendingReroutes: []vtime.Time{0}, // not after the clock
	}
	sched.RunUntil(vtime.Time(5 * vtime.Millisecond))
	if _, err := AttachRestored(sched, emu, spec, bad); err == nil {
		t.Error("stale pending reroute accepted")
	}
	late := EngineState{Bases: make([]vtime.Time, len(spec.Profiles))}
	late.Bases[0] = vtime.Time(50 * vtime.Millisecond) // base after clock
	if _, err := AttachRestored(sched, emu, spec, late); err == nil {
		t.Error("future cycle base accepted")
	}
}
