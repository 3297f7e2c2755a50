package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// samplePacket returns a descriptor with a mode-invariant trace ID, as the
// emulator would mint at injection.
func samplePacket(tr *Tracer, src, dst pipes.VN, size int) *pipes.Packet {
	return &pipes.Packet{
		Src: src, Dst: dst, Size: size,
		Trace: tr.NextTID(src),
		Route: []pipes.ID{3},
	}
}

func recordSample(tr *Tracer) {
	p1 := samplePacket(tr, 0, 5, 600)
	p2 := samplePacket(tr, 1, 6, 1200)
	tr.PipeEnqueue(vtime.Time(10), 3, p1)
	tr.PipeEnqueue(vtime.Time(12), 3, p2)
	tr.PipeDequeue(vtime.Time(20), 3, p1)
	tr.PipeDrop(vtime.Time(22), 3, p2, pipes.DropBacklog)
	tr.Deliver(vtime.Time(30), p1)
	tr.DynStep(vtime.Time(40), 7)
	tr.Reroute(vtime.Time(41))
	tr.Unreachable(vtime.Time(50), 2, 9, 100, tr.NextTID(2))
	tr.Handoff(vtime.Time(60), 1, 3, p1)
	tr.PhysDrop(vtime.Time(61), PhysNICRx, 0, 4, 8, 700)
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	recordSample(tr) // must not panic
	if tr.Len() != 0 || len(tr.Events()) != 0 {
		t.Fatal("nil tracer recorded events")
	}
	if got := tr.NextTID(4); got != 0 {
		t.Fatalf("nil tracer minted TID %d", got)
	}
}

// TestTracerDisabledZeroAlloc pins the zero-cost-when-disabled contract:
// every hook on a nil tracer must be allocation-free.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	pkt := &pipes.Packet{Src: 1, Dst: 2, Size: 100, Route: []pipes.ID{0}}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = tr.NextTID(1)
		tr.PipeEnqueue(0, 0, pkt)
		tr.PipeDequeue(0, 0, pkt)
		tr.PipeDrop(0, 0, pkt, pipes.DropBacklog)
		tr.Deliver(0, pkt)
		tr.DynStep(0, 1)
		tr.Reroute(0)
		tr.Unreachable(0, 1, 2, 100, 0)
		tr.Handoff(0, 1, 0, pkt)
		tr.PhysDrop(0, PhysCPU, 0, 1, 2, 100)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates: %v allocs per run", allocs)
	}
}

func TestTracerTIDsAndEvents(t *testing.T) {
	tr := NewTracer(2)
	if tid := tr.NextTID(3); tid != 3<<32|1 {
		t.Fatalf("first TID for src 3: got %#x, want %#x", tid, uint64(3<<32|1))
	}
	if tid := tr.NextTID(3); tid != 3<<32|2 {
		t.Fatalf("second TID for src 3: got %#x", tid)
	}
	if tid := tr.NextTID(0); tid != 1 {
		t.Fatalf("first TID for src 0: got %#x", tid)
	}
	recordSample(tr)
	evs := tr.Events()
	if len(evs) != tr.Len() || len(evs) == 0 {
		t.Fatalf("Events/Len mismatch: %d vs %d", len(evs), tr.Len())
	}
	for i, ev := range evs {
		if ev.Shard != 2 {
			t.Fatalf("event %d: shard %d, want 2", i, ev.Shard)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d: seq %d", i, ev.Seq)
		}
	}
}

// TestTracerBlockSpill exercises the buffer path past one block.
func TestTracerBlockSpill(t *testing.T) {
	tr := NewTracer(0)
	n := blockEvents*2 + 17
	for i := 0; i < n; i++ {
		tr.DynStep(vtime.Time(i), i)
	}
	evs := tr.Events()
	if len(evs) != n {
		t.Fatalf("recorded %d events, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.VT != int64(i) || ev.Seq != uint64(i) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	tr := NewTracer(1)
	recordSample(tr)
	trace := Merge(tr)
	canon := trace.Canonical()
	for _, ev := range canon {
		if !ev.Kind.Canonical() {
			t.Fatalf("non-canonical kind %v in canonical stream", ev.Kind)
		}
	}
	// Handoff and phys-drop were recorded but must not reach canonical.
	if nAll, nCanon := len(trace.Events), len(canon); nAll-nCanon != 2 {
		t.Fatalf("expected exactly 2 non-canonical events, have %d of %d", nAll-nCanon, nAll)
	}
	b := trace.CanonicalBytes()
	dec, err := DecodeCanonical(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Events) != len(canon) {
		t.Fatalf("decoded %d events, want %d", len(dec.Events), len(canon))
	}
	for i := range canon {
		want := canon[i]
		// Merge metadata does not survive canonical bytes: the shard is
		// gone and the seq is just the record's position in the stream.
		want.Shard, want.Seq = 0, uint64(i)
		if dec.Events[i] != want {
			t.Fatalf("event %d: decoded %+v, want %+v", i, dec.Events[i], want)
		}
	}
	if !bytes.Equal(b, dec.CanonicalBytes()) {
		t.Fatal("re-encoding decoded trace changed bytes")
	}
	if _, err := DecodeCanonical(b[:len(b)-1]); err == nil {
		t.Fatal("truncated canonical trace decoded cleanly")
	}
	if _, err := DecodeCanonical([]byte("NOTATRACE")); err == nil {
		t.Fatal("garbage decoded cleanly")
	}
}

// TestCanonicalShardIndependence pins the core property: the same logical
// events recorded by different shards in different orders canonicalize to
// the same bytes.
func TestCanonicalShardIndependence(t *testing.T) {
	one := NewTracer(-1)
	recordSample(one)
	// Replay the same logical history split across two shards, in a
	// different interleave. TIDs are minted per source, so mint in the
	// same per-source order.
	a, b := NewTracer(0), NewTracer(1)
	pa := &pipes.Packet{Src: 0, Dst: 5, Size: 600, Trace: a.NextTID(0), Route: []pipes.ID{3}}
	pb := &pipes.Packet{Src: 1, Dst: 6, Size: 1200, Trace: b.NextTID(1), Route: []pipes.ID{3}}
	b.PipeDrop(vtime.Time(22), 3, pb, pipes.DropBacklog)
	b.PipeEnqueue(vtime.Time(12), 3, pb)
	a.PipeEnqueue(vtime.Time(10), 3, pa)
	a.PipeDequeue(vtime.Time(20), 3, pa)
	a.Deliver(vtime.Time(30), pa)
	a.DynStep(vtime.Time(40), 7)
	a.Reroute(vtime.Time(41))
	b.Unreachable(vtime.Time(50), 2, 9, 100, b.NextTID(2))
	// Different deployment noise: a handoff on one shard only.
	a.Handoff(vtime.Time(33), 1, 3, pa)
	if !bytes.Equal(Merge(one).CanonicalBytes(), Merge(a, b).CanonicalBytes()) {
		t.Fatal("canonical bytes differ between 1-shard and 2-shard recordings of the same history")
	}
}

func TestWriteJSONLAndChrome(t *testing.T) {
	tr := NewTracer(0)
	recordSample(tr)
	trace := Merge(tr)

	var jl bytes.Buffer
	if err := trace.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != len(trace.Events) {
		t.Fatalf("JSONL has %d lines for %d events", len(lines), len(trace.Events))
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if _, ok := m["kind_name"]; !ok {
			t.Fatalf("line %d: no kind_name: %s", i, ln)
		}
	}

	var ch bytes.Buffer
	if err := trace.WriteChrome(&ch); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ch.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Chrome export has no events")
	}
	sawComplete := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			sawComplete = true
		}
	}
	if !sawComplete {
		t.Fatal("Chrome export has no complete (pipe transit) events")
	}
}

func TestWriteFileDispatch(t *testing.T) {
	tr := NewTracer(0)
	recordSample(tr)
	trace := Merge(tr)
	dir := t.TempDir()

	bin := dir + "/trace.bin"
	if err := trace.WriteFile(bin); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCanonical(raw)
	if err != nil || len(dec.Events) == 0 {
		t.Fatalf("binary round-trip: %v (%d events)", err, len(dec.Events))
	}

	for _, name := range []string{"trace.json", "trace.jsonl"} {
		p := dir + "/" + name
		if err := trace.WriteFile(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFromEventsOrdering(t *testing.T) {
	evs := []Event{
		{VT: 5, Shard: 1, Seq: 0, Kind: KindDeliver},
		{VT: 5, Shard: 0, Seq: 2, Kind: KindDequeue},
		{VT: 1, Shard: 2, Seq: 9, Kind: KindEnqueue},
		{VT: 5, Shard: 0, Seq: 1, Kind: KindEnqueue},
	}
	tr := FromEvents(evs)
	want := []int64{1, 5, 5, 5}
	for i, ev := range tr.Events {
		if ev.VT != want[i] {
			t.Fatalf("event %d: VT %d, want %d", i, ev.VT, want[i])
		}
	}
	if tr.Events[1].Seq != 1 || tr.Events[2].Seq != 2 || tr.Events[3].Shard != 1 {
		t.Fatalf("(vtime, shard, seq) merge order violated: %+v", tr.Events)
	}
}
