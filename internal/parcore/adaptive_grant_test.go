package parcore

import (
	"testing"

	"modelnet/internal/dynamics"
	"modelnet/internal/vtime"
)

// scriptedTransport answers each barrier round with the next scripted bounds
// and records every window's grant vector and every drain turn's target.
// Once the script is exhausted it reports quiescence, which ends the drive.
type scriptedTransport struct {
	k      int
	rounds [][]Bounds
	next   int
	grants [][]vtime.Time
	drains []vtime.Time
}

func (s *scriptedTransport) Cores() int { return s.k }

func (s *scriptedTransport) Step(cmds []Cmd) ([]Report, error) {
	switch c := cmds[0]; {
	case c.Drain:
		s.drains = append(s.drains, c.Grant)
	case c.Grant >= 0:
		g := make([]vtime.Time, len(cmds))
		for j := range cmds {
			g[j] = cmds[j].Grant
		}
		s.grants = append(s.grants, g)
	}
	reps := make([]Report, s.k)
	for j := range reps {
		reps[j].Bounds = Bounds{Next: vtime.Forever, Safe: vtime.Forever}
		if s.next < len(s.rounds) {
			reps[j].Bounds = s.rounds[s.next][j]
		}
	}
	s.next++
	return reps, nil
}

// bounds2 builds one shard's Bounds for a 2-shard script: next local event
// and the earliest time its current state could fire on the peer.
func bounds2(shard int, next, safeToPeer vtime.Time) Bounds {
	st := []vtime.Time{vtime.Forever, vtime.Forever}
	st[1-shard] = safeToPeer
	return Bounds{Next: next, Safe: safeToPeer, SafeTo: st}
}

// TestAdaptiveGrantsHonorFlooredChain pins the adaptive grant rule against
// a hand-computed min-plus closure, on a chain matrix whose crossing
// distances come from a dynamics trace that cuts a border pipe's latency.
// Two invariants: a shard's grant always stops short of the earliest
// cross-shard message the closure admits (grant ≤ horizon − 1), and when
// the latency cut shrinks a crossing distance the grant shrinks with it —
// a drive that kept using the bind-time chain would release windows a
// dipped message could land inside.
func TestAdaptiveGrantsHonorFlooredChain(t *testing.T) {
	g, b, pod, homes, _, cut := syncFixture(t, 2)

	dip := dynamics.At(200 * vtime.Millisecond)
	dip.Latency = 100 * vtime.Microsecond
	spec := &dynamics.Spec{Profiles: []dynamics.Profile{
		{Link: int(cut), Steps: []dynamics.Step{dip}},
	}}

	base := ChainMatrix(ComputeSyncPlan(g, b, pod, homes, 2, nil))
	floored := ChainMatrix(ComputeSyncPlan(g, b, pod, homes, 2, spec.LatencyFloorFunc()))
	if base == nil || floored == nil {
		t.Fatal("ComputeSyncPlan produced no plans")
	}
	shrunk := false
	for i := range base {
		for j := range base[i] {
			if floored[i][j] > base[i][j] {
				t.Fatalf("floor raised chain[%d][%d]: %v -> %v", i, j, base[i][j], floored[i][j])
			}
			if floored[i][j] < base[i][j] {
				shrunk = true
			}
		}
	}
	if !shrunk {
		t.Fatal("latency cut left the chain matrix untouched — the fixture exercises nothing")
	}

	const deadline = vtime.Time(vtime.Second)
	// Shard 1's horizon seeds shard 0 tightly (10 ms); shard 0's own seed
	// toward shard 1 is loose (50 ms), so shard 1's grant is decided by the
	// chained term A[0] + chain[0][1] — the crossing distance the dip cuts.
	seed0to1 := vtime.Time(50 * vtime.Millisecond)
	seed1to0 := vtime.Time(10 * vtime.Millisecond)
	round1 := []Bounds{
		bounds2(0, vtime.Time(5*vtime.Millisecond), seed0to1),
		bounds2(1, vtime.Time(6*vtime.Millisecond), seed1to0),
	}
	// Round 2 (the bounds window 1 reports): every horizon sits below every
	// next event, so no shard can fire — the drive must fall back to a
	// serial drain at minNext.
	round2 := []Bounds{
		bounds2(0, vtime.Time(200*vtime.Millisecond), vtime.Time(150*vtime.Millisecond)),
		bounds2(1, vtime.Time(180*vtime.Millisecond), vtime.Time(140*vtime.Millisecond)),
	}

	// The min-plus closure for k = 2, written out by hand: relaxation
	// updates in place, so A[1] settles first and then feeds A[0].
	expect := func(chain [][]vtime.Duration) (vtime.Time, vtime.Time) {
		a1 := seed0to1
		if v := satAdd(seed1to0, chain[0][1]); v < a1 {
			a1 = v
		}
		a0 := seed1to0
		if v := satAdd(a1, chain[1][0]); v < a0 {
			a0 = v
		}
		return a0 - 1, a1 - 1
	}

	run := func(chain [][]vtime.Duration) (*scriptedTransport, SyncStats) {
		tr := &scriptedTransport{k: 2, rounds: [][]Bounds{round1, round2}}
		var st SyncStats
		if err := Drive(tr, &st, deadline, DriveOpts{Chain: chain}); err != nil {
			t.Fatal(err)
		}
		return tr, st
	}

	check := func(name string, chain [][]vtime.Duration) []vtime.Time {
		tr, st := run(chain)
		// Window 1 from round 1, window 2 the final advance to the deadline;
		// round 2 must have drained, not released.
		if len(tr.grants) != 2 {
			t.Fatalf("%s: %d windows released, want 2: %v", name, len(tr.grants), tr.grants)
		}
		if len(tr.drains) != 1 || tr.drains[0] != vtime.Time(180*vtime.Millisecond) {
			t.Fatalf("%s: drains = %v, want one drain at shard 1's next event (180ms)", name, tr.drains)
		}
		if int(st.Windows) != len(tr.grants) {
			t.Fatalf("%s: stats count %d windows, transport saw %d", name, st.Windows, len(tr.grants))
		}
		got := tr.grants[0]
		e0, e1 := expect(chain)
		if got[0] != e0 || got[1] != e1 {
			t.Fatalf("%s: grants = %v, want [%v %v]", name, got, e0, e1)
		}
		// Grant ≤ horizon − 1: no shard may run up to the earliest time a
		// cross-shard message could reach it.
		if got[0] >= seed1to0 || got[1] >= seed0to1 {
			t.Fatalf("%s: grants %v reach the peers' horizons (%v, %v)", name, got, seed1to0, seed0to1)
		}
		if fin := tr.grants[1]; fin[0] != deadline || fin[1] != deadline {
			t.Fatalf("%s: final window %v did not advance both clocks to the deadline", name, fin)
		}
		return got
	}

	gb := check("base chain", base)
	gf := check("floored chain", floored)
	for j := range gb {
		if gf[j] > gb[j] {
			t.Fatalf("shard %d: floored grant %v exceeds base grant %v — the dip loosened a window", j, gf[j], gb[j])
		}
	}
	// The dip cuts shard 0's crossing distance toward shard 1 (the cut pipe
	// is a border pipe of the shard that owns it), so with shard 1's grant
	// bound by the chained term the floored drive must tighten it.
	if floored[0][1] < base[0][1] {
		want := satAdd(seed1to0, floored[0][1])
		if want < seed0to1 && gf[1] >= gb[1] {
			t.Fatalf("shard 1: grant did not tighten under the floored chain: base %v, floored %v", gb[1], gf[1])
		}
	}
}
