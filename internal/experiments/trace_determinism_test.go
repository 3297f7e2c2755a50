package experiments

// The observability layer's determinism contract (internal/obs): with
// Options.Trace set, the canonical encoding of the recorded packet trace —
// the mode-invariant events (pipe enqueue/dequeue/drop, delivery,
// unreachable injections, dynamics steps, reroutes), content-sorted and
// stripped of merge metadata — must be byte-identical across the
// sequential, in-process parallel, and multi-process federated execution
// modes. Handoffs and physical-capacity drops are deployment properties
// and are deliberately outside the canonical form; the contract holds
// under event-exact profiles, like the counter contract it extends.

import (
	"bytes"
	"testing"

	"modelnet"
	"modelnet/internal/obs"
)

// canonOf returns a trace's canonical bytes, failing on an empty trace.
func canonOf(t *testing.T, name string, tr *obs.Trace) []byte {
	t.Helper()
	if tr == nil {
		t.Fatalf("%s: no trace recorded", name)
	}
	b := tr.CanonicalBytes()
	if len(tr.Canonical()) == 0 {
		t.Fatalf("%s: trace has no canonical events", name)
	}
	return b
}

func sameTrace(t *testing.T, name string, want, got []byte) {
	t.Helper()
	if !bytes.Equal(want, got) {
		wt, werr := obs.DecodeCanonical(want)
		gt, gerr := obs.DecodeCanonical(got)
		if werr != nil || gerr != nil {
			t.Fatalf("%s: canonical traces differ and decode failed (%v, %v)", name, werr, gerr)
		}
		if len(wt.Events) != len(gt.Events) {
			t.Fatalf("%s: canonical traces differ: %d vs %d events", name, len(wt.Events), len(gt.Events))
		}
		for i := range wt.Events {
			if wt.Events[i] != gt.Events[i] {
				t.Fatalf("%s: canonical traces diverge at event %d:\n want %+v\n got  %+v",
					name, i, wt.Events[i], gt.Events[i])
			}
		}
		t.Fatalf("%s: canonical traces differ (same events, different bytes?)", name)
	}
}

// traceModes are the points the trace suites cover: the in-process runtime
// and a 2-worker federation over both planes under both algebras, each
// recording a trace.
func traceModes(inprocCores int) []modelnet.Options {
	modes := append([]modelnet.Options{inprocMode(inprocCores)}, fedPlanes(2)...)
	for i := range modes {
		modes[i].Trace = true
	}
	return modes
}

func TestRingCBRTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	sc := scenarioOf(t, ScenarioRingCBR, fednetRingSpec())
	traced := seqMode()
	traced.Trace = true
	want := canonOf(t, "ring seq", run(t, sc, traced).Trace)
	for _, mode := range traceModes(4) {
		name := "ring trace seq vs " + modeName(mode)
		sameTrace(t, name, want, canonOf(t, name, run(t, sc, mode).Trace))
	}
}

func TestFlakyEdgeTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	sc := scenarioOf(t, ScenarioFlakyEdge, flakySmallSpec(t, 2))
	traced := seqMode()
	traced.Trace = true
	seq := run(t, sc, traced)
	want := canonOf(t, "flaky seq", seq.Trace)
	// The canonical stream must contain the dynamics and drop events this
	// scenario exists to produce — an empty taxonomy would make the
	// byte-comparison vacuous.
	kinds := map[obs.Kind]int{}
	for _, ev := range seq.Trace.Canonical() {
		kinds[ev.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindEnqueue, obs.KindDequeue, obs.KindDeliver, obs.KindDrop, obs.KindDynStep, obs.KindReroute} {
		if kinds[k] == 0 {
			t.Errorf("flaky seq trace has no %v events", k)
		}
	}
	for _, mode := range traceModes(2) {
		name := "flaky trace seq vs " + modeName(mode)
		got := run(t, sc, mode)
		sameTrace(t, name, want, canonOf(t, name, got.Trace))
		// Every traced run must also surface the unified drop taxonomy.
		if !equalU64(seq.Drops, got.Drops) {
			t.Errorf("%s: drops-by-reason diverge:\n sequential %v\n got        %v", name, seq.Drops, got.Drops)
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
