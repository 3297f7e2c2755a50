package parcore

import (
	"testing"
	"time"

	"modelnet/internal/assign"
	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// ringRuntime builds the 2-shard ring of syncFixture as a Runtime and
// returns one VN homed on each shard.
func ringRuntime(t *testing.T) (r *Runtime, on0, on1 pipes.VN) {
	t.Helper()
	g, b, _, _, _, _ := syncFixture(t, 2)
	asn, err := assign.KClusters(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err = New(Config{Graph: g, Binding: b, Assignment: asn, Profile: emucore.IdealProfile(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	on0, on1 = -1, -1
	for v := 0; v < b.NumVNs(); v++ {
		if r.HomeOf(pipes.VN(v)) == 0 && on0 < 0 {
			on0 = pipes.VN(v)
		}
		if r.HomeOf(pipes.VN(v)) == 1 && on1 < 0 {
			on1 = pipes.VN(v)
		}
	}
	if on0 < 0 || on1 < 0 {
		t.Fatal("a shard homes no VN")
	}
	return r, on0, on1
}

// cbr schedules n packets from every VN to the VN half the ring away, one
// per gap, so traffic crosses the cut in both directions throughout.
func cbr(r *Runtime, n int, gap vtime.Duration) {
	vns := len(r.homes)
	for i := 0; i < n; i++ {
		for v := 0; v < vns; v++ {
			src, dst := pipes.VN(v), pipes.VN((v+vns/2)%vns)
			emu := r.EmuOf(src)
			r.SchedOf(src).At(vtime.Time(i)*vtime.Time(gap), func() { emu.Inject(src, dst, 400, nil) })
		}
	}
}

// serialSteps is the in-process transport without the goroutines: it takes
// the shards' steps one after the other (a round's steps are independent)
// and times each from the outside.
type serialSteps struct {
	r    *Runtime
	wall []time.Duration
}

func (s *serialSteps) Cores() int { return len(s.r.workers) }

func (s *serialSteps) Step(cmds []Cmd) ([]Report, error) {
	reps := make([]Report, len(cmds))
	for i, w := range s.r.workers {
		t0 := time.Now()
		rep, err := w.Step(cmds[i], w)
		s.wall[i] += time.Since(t0)
		if err != nil {
			return nil, err
		}
		reps[i] = rep
	}
	s.r.closeRound(reps)
	return reps, nil
}

// The admission rule of the one barrier round (DESIGN.md §4): a live arrival
// stamped max(now, Floor) with Floor above the round's grant stays out of the
// round that admits it and is priced by that round's bounds. The same
// admission with Floor below the grant — what stamping at the reported
// clocks alone would allow — fires inside the admitting round and puts a
// message on the wire earlier than the bounds the grant came from allowed.
func TestAdmissionRuleOnTheFusedRound(t *testing.T) {
	const grant = vtime.Time(100 * vtime.Millisecond)
	admit := func(floor vtime.Time) (before, after Report, fired []vtime.Time, mailed []Msg) {
		r, on0, on1 := ringRuntime(t)
		w := r.workers[0]
		var err error
		if before, err = w.Step(Cmd{Grant: -1}, w); err != nil {
			t.Fatal(err)
		}
		// What a gateway's Admit does ahead of the step.
		at := w.Sched.Now()
		if floor > at {
			at = floor
		}
		w.Sched.At(at, func() {
			fired = append(fired, w.Sched.Now())
			w.Emu.Inject(on0, on1, 400, nil)
		})
		if after, err = w.Step(Cmd{Grant: grant, Floor: floor}, w); err != nil {
			t.Fatal(err)
		}
		return before, after, fired, r.workers[1].mail[r.parity][0]
	}

	t.Run("floor above the grant", func(t *testing.T) {
		before, after, fired, mailed := admit(grant + 1)
		if before.Next != vtime.Forever || before.Safe != vtime.Forever {
			t.Fatalf("test premise: the idle shard should promise silence, got %+v", before.Bounds)
		}
		if len(fired) != 0 || len(mailed) != 0 {
			t.Fatalf("admission fired inside the admitting round: fired %v, %d messages flushed", fired, len(mailed))
		}
		if after.Next != grant+1 {
			t.Fatalf("round's bounds report next event %v, want the admission at %v", after.Next, grant+1)
		}
		if after.Safe == vtime.Forever || after.Safe <= grant {
			t.Fatalf("round's bounds do not price the admission: safe %v", after.Safe)
		}
	})
	t.Run("floor below the grant", func(t *testing.T) {
		floor := vtime.Time(10 * vtime.Millisecond)
		before, _, fired, mailed := admit(floor)
		if len(fired) != 1 || fired[0] != floor {
			t.Fatalf("test premise: the admission should fire at the floor inside the round, fired %v", fired)
		}
		if len(mailed) == 0 {
			t.Fatal("test premise: the admitted packet should reach the cut inside the round")
		}
		if mailed[0].Fire >= before.Safe {
			t.Fatalf("message fires at %v, not ahead of the promised %v", mailed[0].Fire, before.Safe)
		}
	})
}

// Shard.Step's buckets are exhaustive: what the profile attributes adds up
// to the wall clock spent in Step, measured from the outside.
func TestStepBucketsAddUpToItsWall(t *testing.T) {
	r, _, _ := ringRuntime(t)
	cbr(r, 400, 500*vtime.Microsecond)
	tr := &serialSteps{r: r, wall: make([]time.Duration, 2)}
	var st SyncStats
	if err := Drive(tr, &st, vtime.Time(300*vtime.Millisecond), DriveOpts{Chain: r.chain}); err != nil {
		t.Fatal(err)
	}
	if st.Windows < 10 || st.Messages == 0 {
		t.Fatalf("test premise: %d windows, %d cross-shard messages", st.Windows, st.Messages)
	}
	for i, p := range r.ShardProfiles() {
		sum := time.Duration(p.WaitWallNs + p.ApplyWallNs + p.RunWallNs + p.DrainWallNs + p.FlushWallNs + p.BoundsWallNs)
		if p.BoundsWallNs == 0 || p.RunWallNs == 0 || p.ApplyWallNs == 0 {
			t.Errorf("shard %d: an exercised bucket is empty: %+v", i, p)
		}
		if diff := tr.wall[i] - sum; diff < 0 || diff*50 > tr.wall[i] {
			t.Errorf("shard %d: buckets sum to %v of %v spent in Step (%v unattributed, limit 2%%)", i, sum, tr.wall[i], diff)
		}
	}
}

// The step itself must never become a per-window cost: with nothing to
// receive, run or flush it allocates exactly what its one ShardBounds call
// does.
func TestStepAllocs(t *testing.T) {
	r, _, _ := ringRuntime(t)
	cbr(r, 40, 500*vtime.Microsecond)
	r.RunUntil(vtime.Time(10 * vtime.Millisecond)) // packets in pipes, messages pending in the applier
	w := r.workers[0]
	pending := 0
	w.Applier.ScanPending(func(Msg) { pending++ })
	if pending == 0 || w.Emu.Totals().InFlight == 0 {
		t.Fatalf("test premise: the shard should hold work to price (%d pending messages, %d packets in flight)",
			pending, w.Emu.Totals().InFlight)
	}
	bare := testing.AllocsPerRun(100, func() { ShardBounds(w.Sched, w.Emu, w.Sync, w.Applier) })
	step := testing.AllocsPerRun(100, func() {
		if _, err := w.Step(Cmd{Grant: -1}, w); err != nil {
			t.Fatal(err)
		}
	})
	if step != bare {
		t.Fatalf("bounds-only Step: %v allocs, a bare ShardBounds %v — the wrapper must add none", step, bare)
	}
}
