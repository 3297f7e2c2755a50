package obs

// Virtual-time packet tracing. A Tracer collects per-shard event records
// with nil-receiver-safe hook methods (a disabled trace is a nil *Tracer:
// every record call is a single predictable branch and zero allocations).
// Traces from all shards merge into a Trace, whose canonical binary
// encoding is byte-identical across the sequential, in-process parallel,
// and federated execution modes for the same scenario.
//
// Canonicality. Two things about a record are mode-dependent: which shard
// recorded it and in what local order (a packet's pipe events all happen on
// the pipe's owning shard, but shard numbering and interleave differ by
// mode and core count). Everything else — the virtual timestamp, the event
// kind, the pipe, the packet identity, and the packet's src/dst/size — is a
// property of the emulated network, not of the deployment. The canonical
// encoding therefore serializes only the mode-invariant fields and orders
// records by their full content key; Shard and Seq survive in the merged
// in-memory Trace (and the JSONL export) as diagnostics but never reach
// canonical bytes. Packet identity is Packet.Trace, a mode-invariant ID
// minted at injection (per-source injection order is the same in every
// mode), because Packet.Seq embeds the injecting shard and cannot agree
// across core counts.
//
// The contract inherits the existing determinism contract's precondition:
// modes agree under profiles where emulation itself is deterministic across
// deployments (the ideal profile; physical-admission drops are per-core
// wall effects and are recorded as non-canonical KindPhysDrop events).

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// Kind is a trace event type.
type Kind uint8

// Event kinds. The first six are canonical (mode-invariant); KindHandoff
// and KindPhysDrop describe the deployment, not the emulated network, and
// are excluded from canonical bytes.
const (
	KindEnqueue  Kind = 1 // packet accepted into a pipe queue (VT = entry time)
	KindDrop     Kind = 2 // packet dropped (Arg = pipes.DropReason; Pipe = -1 off-pipe)
	KindDequeue  Kind = 3 // packet exited a pipe (VT = exact exit time)
	KindDeliver  Kind = 4 // delivery completed at the destination VN
	KindDynStep  Kind = 5 // link-dynamics step applied (Pipe = link, TID = step ordinal)
	KindReroute  Kind = 6 // route tables rebuilt (TID = reroute ordinal)
	KindHandoff  Kind = 7 // cross-core handoff emitted (Dst = target shard); non-canonical
	KindPhysDrop Kind = 8 // physical admission drop (Arg = Phys* site); non-canonical
)

// String names a kind for the JSONL and Chrome exports.
func (k Kind) String() string {
	switch k {
	case KindEnqueue:
		return "enqueue"
	case KindDrop:
		return "drop"
	case KindDequeue:
		return "dequeue"
	case KindDeliver:
		return "deliver"
	case KindDynStep:
		return "dyn-step"
	case KindReroute:
		return "reroute"
	case KindHandoff:
		return "handoff"
	case KindPhysDrop:
		return "phys-drop"
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Canonical reports whether events of this kind appear in canonical bytes.
func (k Kind) Canonical() bool { return k >= KindEnqueue && k <= KindReroute }

// Physical-admission drop sites (Event.Arg for KindPhysDrop).
const (
	PhysNICRx     uint8 = 1 // injection rejected by NIC backlog
	PhysCPU       uint8 = 2 // injection rejected by CPU backlog
	PhysTunnelTx  uint8 = 3 // cross-core send rejected by NIC backlog
	PhysTunnelRx  uint8 = 4 // cross-core receive rejected by NIC backlog
	PhysTunnelCPU uint8 = 5 // cross-core receive rejected by CPU backlog
	PhysEdgeTx    uint8 = 6 // final-hop emission rejected by NIC backlog
)

// PhysSiteString names a physical drop site.
func PhysSiteString(site uint8) string {
	switch site {
	case PhysNICRx:
		return "nic-rx"
	case PhysCPU:
		return "cpu"
	case PhysTunnelTx:
		return "tunnel-tx"
	case PhysTunnelRx:
		return "tunnel-rx"
	case PhysTunnelCPU:
		return "tunnel-cpu"
	case PhysEdgeTx:
		return "edge-tx"
	}
	return fmt.Sprintf("phys-%d", site)
}

// Event is one trace record. VT, Kind, Arg, Pipe, Src, Dst, Size, and TID
// are canonical content; Shard and Seq are merge metadata (which shard
// recorded it, in what local order) kept for diagnostics.
type Event struct {
	VT    int64  `json:"vt"`            // virtual time, ns
	TID   uint64 `json:"tid,omitempty"` // packet trace ID (src<<32 | per-src ordinal), or step/reroute ordinal
	Seq   uint64 `json:"seq"`           // per-shard record ordinal
	Shard int32  `json:"shard"`         // recording shard (-1 = sequential)
	Pipe  int32  `json:"pipe"`          // pipe/link ID, -1 when off-pipe
	Src   int32  `json:"src"`           // source VN, -1 for non-packet events
	Dst   int32  `json:"dst"`           // destination VN (KindHandoff: target shard)
	Size  int32  `json:"size"`          // packet size in bytes
	Kind  Kind   `json:"kind"`          // event type
	Arg   uint8  `json:"arg,omitempty"` // drop reason / phys site
}

// canonRecordBytes is the fixed canonical wire size of one event:
// VT i64, Kind u8, Arg u8, Pipe i32, Src i32, Dst i32, Size i32, TID u64.
const canonRecordBytes = 8 + 1 + 1 + 4 + 4 + 4 + 4 + 8

// canonMagic heads the canonical binary trace format.
const canonMagic = "MNTRACE1"

// blockEvents sizes one tracer buffer block.
const blockEvents = 4096

// Tracer records one shard's events. The zero *Tracer (nil) is a valid
// disabled tracer: every method returns immediately. Buffers grow in
// fixed-size blocks, so a long run never copies recorded events.
type Tracer struct {
	shard  int32
	seq    uint64
	perSrc []uint64 // per-source injection ordinals for NextTID
	dyn    uint64   // dynamics-step ordinal
	rer    uint64   // reroute ordinal
	blocks [][]Event
	cur    []Event
}

// NewTracer returns an enabled tracer recording as the given shard
// (-1 for the sequential mode).
func NewTracer(shard int) *Tracer { return &Tracer{shard: int32(shard)} }

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := len(t.cur)
	for _, b := range t.blocks {
		n += len(b)
	}
	return n
}

// push appends one record, stamping shard and local order.
func (t *Tracer) push(ev Event) {
	ev.Shard = t.shard
	ev.Seq = t.seq
	t.seq++
	if len(t.cur) == cap(t.cur) {
		if t.cur != nil {
			t.blocks = append(t.blocks, t.cur)
		}
		t.cur = make([]Event, 0, blockEvents)
	}
	t.cur = append(t.cur, ev)
}

// NextTID mints the next mode-invariant trace ID for a packet injected by
// src: src in the high 32 bits, the per-source injection ordinal (from 1)
// in the low 32. Injection order per source VN is identical in every
// execution mode, so the IDs agree across modes. A nil tracer returns 0.
func (t *Tracer) NextTID(src pipes.VN) uint64 {
	if t == nil {
		return 0
	}
	if int(src) >= len(t.perSrc) {
		grown := make([]uint64, int(src)+1)
		copy(grown, t.perSrc)
		t.perSrc = grown
	}
	t.perSrc[src]++
	return uint64(uint32(src))<<32 | (t.perSrc[src] & 0xffffffff)
}

// PipeEnqueue records a packet accepted into a pipe at virtual time at.
func (t *Tracer) PipeEnqueue(at vtime.Time, pipe pipes.ID, pkt *pipes.Packet) {
	if t == nil {
		return
	}
	t.push(Event{VT: int64(at), Kind: KindEnqueue, Pipe: int32(pipe), TID: pkt.Trace,
		Src: int32(pkt.Src), Dst: int32(pkt.Dst), Size: int32(pkt.Size)})
}

// PipeDrop records a packet dropped by a pipe's admission at virtual time at.
func (t *Tracer) PipeDrop(at vtime.Time, pipe pipes.ID, pkt *pipes.Packet, reason pipes.DropReason) {
	if t == nil {
		return
	}
	t.push(Event{VT: int64(at), Kind: KindDrop, Arg: uint8(reason), Pipe: int32(pipe), TID: pkt.Trace,
		Src: int32(pkt.Src), Dst: int32(pkt.Dst), Size: int32(pkt.Size)})
}

// PipeDequeue records a packet exiting a pipe at its exact virtual exit time.
func (t *Tracer) PipeDequeue(at vtime.Time, pipe pipes.ID, pkt *pipes.Packet) {
	if t == nil {
		return
	}
	t.push(Event{VT: int64(at), Kind: KindDequeue, Pipe: int32(pipe), TID: pkt.Trace,
		Src: int32(pkt.Src), Dst: int32(pkt.Dst), Size: int32(pkt.Size)})
}

// Deliver records a completed delivery at the destination VN.
func (t *Tracer) Deliver(at vtime.Time, pkt *pipes.Packet) {
	if t == nil {
		return
	}
	t.push(Event{VT: int64(at), Kind: KindDeliver, Pipe: -1, TID: pkt.Trace,
		Src: int32(pkt.Src), Dst: int32(pkt.Dst), Size: int32(pkt.Size)})
}

// Unreachable records an injection rejected by route lookup (the
// DropUnreachable taxonomy slot), off-pipe.
func (t *Tracer) Unreachable(at vtime.Time, src, dst pipes.VN, size int, tid uint64) {
	if t == nil {
		return
	}
	t.push(Event{VT: int64(at), Kind: KindDrop, Arg: uint8(pipes.DropUnreachable), Pipe: -1, TID: tid,
		Src: int32(src), Dst: int32(dst), Size: int32(size)})
}

// DynStep records a link-dynamics step applied to a link.
func (t *Tracer) DynStep(at vtime.Time, link int) {
	if t == nil {
		return
	}
	t.dyn++
	t.push(Event{VT: int64(at), Kind: KindDynStep, Pipe: int32(link), TID: t.dyn, Src: -1, Dst: -1})
}

// Reroute records a route-table rebuild.
func (t *Tracer) Reroute(at vtime.Time) {
	if t == nil {
		return
	}
	t.rer++
	t.push(Event{VT: int64(at), Kind: KindReroute, Pipe: -1, TID: t.rer, Src: -1, Dst: -1})
}

// Handoff records a cross-core handoff toward target (non-canonical: the
// shard layout is a deployment property).
func (t *Tracer) Handoff(at vtime.Time, target int, pipe pipes.ID, pkt *pipes.Packet) {
	if t == nil {
		return
	}
	t.push(Event{VT: int64(at), Kind: KindHandoff, Pipe: int32(pipe), TID: pkt.Trace,
		Src: int32(pkt.Src), Dst: int32(target), Size: int32(pkt.Size)})
}

// PhysDrop records a physical admission drop at the given Phys* site
// (non-canonical: admission backlog is a per-core wall effect). Fields are
// explicit because injection-path drops happen before a descriptor exists.
func (t *Tracer) PhysDrop(at vtime.Time, site uint8, tid uint64, src, dst pipes.VN, size int) {
	if t == nil {
		return
	}
	t.push(Event{VT: int64(at), Kind: KindPhysDrop, Arg: site, Pipe: -1, TID: tid,
		Src: int32(src), Dst: int32(dst), Size: int32(size)})
}

// Events returns a flattened copy of the recorded events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.Len())
	for _, b := range t.blocks {
		out = append(out, b...)
	}
	return append(out, t.cur...)
}

// Trace is a merged multi-shard trace, ordered by (VT, Shard, Seq).
type Trace struct {
	Events []Event
}

// Merge combines per-shard tracers into one Trace in deterministic
// (VT, Shard, Seq) order. Nil tracers are skipped.
func Merge(tracers ...*Tracer) *Trace {
	var evs []Event
	for _, t := range tracers {
		evs = append(evs, t.Events()...)
	}
	return FromEvents(evs)
}

// FromEvents builds a Trace from already-recorded events, taking ownership
// of the slice and sorting it into (VT, Shard, Seq) order.
func FromEvents(evs []Event) *Trace {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.VT != b.VT {
			return a.VT < b.VT
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return &Trace{Events: evs}
}

// canonLess orders events by full canonical content, the only order every
// execution mode can agree on (per-shard Seq differs across core counts).
func canonLess(a, b *Event) bool {
	if a.VT != b.VT {
		return a.VT < b.VT
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Pipe != b.Pipe {
		return a.Pipe < b.Pipe
	}
	if a.TID != b.TID {
		return a.TID < b.TID
	}
	if a.Arg != b.Arg {
		return a.Arg < b.Arg
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.Size < b.Size
}

// Canonical returns the canonical events: the mode-invariant kinds, sorted
// by content.
func (t *Trace) Canonical() []Event {
	evs := make([]Event, 0, len(t.Events))
	for _, ev := range t.Events {
		if ev.Kind.Canonical() {
			evs = append(evs, ev)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return canonLess(&evs[i], &evs[j]) })
	return evs
}

// CanonicalBytes encodes the canonical events in the canonical binary
// format: an 8-byte magic, a u32 record count, then fixed 34-byte
// little-endian records of (VT, Kind, Arg, Pipe, Src, Dst, Size, TID).
// Byte-identical across execution modes for the same scenario.
func (t *Trace) CanonicalBytes() []byte {
	evs := t.Canonical()
	b := make([]byte, 0, len(canonMagic)+4+len(evs)*canonRecordBytes)
	b = append(b, canonMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(evs)))
	for i := range evs {
		ev := &evs[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.VT))
		b = append(b, uint8(ev.Kind), ev.Arg)
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.Pipe))
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.Src))
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.Dst))
		b = binary.LittleEndian.AppendUint32(b, uint32(ev.Size))
		b = binary.LittleEndian.AppendUint64(b, ev.TID)
	}
	return b
}

// DecodeCanonical parses a canonical binary trace. Decoded events carry no
// shard/seq metadata (that is the point of the format).
func DecodeCanonical(b []byte) (*Trace, error) {
	if len(b) < len(canonMagic)+4 || string(b[:len(canonMagic)]) != canonMagic {
		return nil, fmt.Errorf("obs: not a canonical trace (bad magic)")
	}
	n := binary.LittleEndian.Uint32(b[len(canonMagic):])
	rest := b[len(canonMagic)+4:]
	if len(rest) != int(n)*canonRecordBytes {
		return nil, fmt.Errorf("obs: canonical trace: %d records declared, %d bytes of records", n, len(rest))
	}
	evs := make([]Event, n)
	for i := range evs {
		r := rest[i*canonRecordBytes:]
		evs[i] = Event{
			VT:   int64(binary.LittleEndian.Uint64(r)),
			Kind: Kind(r[8]),
			Arg:  r[9],
			Pipe: int32(binary.LittleEndian.Uint32(r[10:])),
			Src:  int32(binary.LittleEndian.Uint32(r[14:])),
			Dst:  int32(binary.LittleEndian.Uint32(r[18:])),
			Size: int32(binary.LittleEndian.Uint32(r[22:])),
			TID:  binary.LittleEndian.Uint64(r[26:]),
			Seq:  uint64(i),
		}
	}
	return &Trace{Events: evs}, nil
}

// jsonlEvent is the JSONL export record: the Event plus symbolic names.
type jsonlEvent struct {
	Event
	KindName string `json:"kind_name"`
	ArgName  string `json:"arg_name,omitempty"`
}

// argName resolves the symbolic Arg of an event.
func argName(ev *Event) string {
	switch ev.Kind {
	case KindDrop:
		return pipes.DropReason(ev.Arg).String()
	case KindPhysDrop:
		return PhysSiteString(ev.Arg)
	}
	return ""
}

// WriteJSONL writes the merged trace as one JSON object per line, in
// (VT, Shard, Seq) order, with shard/seq diagnostics included.
func (t *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.Events {
		ev := &t.Events[i]
		if err := enc.Encode(jsonlEvent{Event: *ev, KindName: ev.Kind.String(), ArgName: argName(ev)}); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Chrome trace rows: pipes are threads of process 0, deliveries threads
// (per destination VN) of process 1, dynamics process 2.
const (
	chromePipes    = 0
	chromeDeliver  = 1
	chromeDynamics = 2
)

// WriteChrome writes the trace in the Chrome trace-event JSON format: each
// pipe transit (enqueue..dequeue of one packet) becomes a complete event on
// the pipe's row, drops and deliveries become instant events, dynamics
// steps and reroutes land on their own process row. Virtual nanoseconds map
// to trace microseconds with sub-us precision preserved as fractions.
func (t *Trace) WriteChrome(w io.Writer) error {
	type transit struct {
		vt int64
		ev *Event
	}
	open := map[[2]int64]transit{} // (pipe, tid) -> enqueue
	var out []chromeEvent
	us := func(vt int64) float64 { return float64(vt) / 1e3 }
	for i := range t.Events {
		ev := &t.Events[i]
		switch ev.Kind {
		case KindEnqueue:
			open[[2]int64{int64(ev.Pipe), int64(ev.TID)}] = transit{vt: ev.VT, ev: ev}
		case KindDequeue:
			key := [2]int64{int64(ev.Pipe), int64(ev.TID)}
			if tr, ok := open[key]; ok {
				delete(open, key)
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("pkt %d->%d", ev.Src, ev.Dst), Phase: "X",
					TS: us(tr.vt), Dur: us(ev.VT - tr.vt), PID: chromePipes, TID: int64(ev.Pipe),
					Args: map[string]any{"tid": ev.TID, "size": ev.Size},
				})
			}
		case KindDrop:
			out = append(out, chromeEvent{
				Name: "drop " + pipes.DropReason(ev.Arg).String(), Phase: "i", Scope: "t",
				TS: us(ev.VT), PID: chromePipes, TID: int64(ev.Pipe),
				Args: map[string]any{"tid": ev.TID, "src": ev.Src, "dst": ev.Dst},
			})
		case KindDeliver:
			out = append(out, chromeEvent{
				Name: "deliver", Phase: "i", Scope: "t",
				TS: us(ev.VT), PID: chromeDeliver, TID: int64(ev.Dst),
				Args: map[string]any{"tid": ev.TID, "src": ev.Src, "size": ev.Size},
			})
		case KindDynStep:
			out = append(out, chromeEvent{
				Name: "dyn-step", Phase: "i", Scope: "p",
				TS: us(ev.VT), PID: chromeDynamics, TID: int64(ev.Pipe),
			})
		case KindReroute:
			out = append(out, chromeEvent{
				Name: "reroute", Phase: "i", Scope: "p",
				TS: us(ev.VT), PID: chromeDynamics, TID: -1,
			})
		case KindHandoff:
			out = append(out, chromeEvent{
				Name: "handoff", Phase: "i", Scope: "t",
				TS: us(ev.VT), PID: chromePipes, TID: int64(ev.Pipe),
				Args: map[string]any{"tid": ev.TID, "shard": ev.Shard, "target": ev.Dst},
			})
		case KindPhysDrop:
			out = append(out, chromeEvent{
				Name: "phys-drop " + PhysSiteString(ev.Arg), Phase: "i", Scope: "t",
				TS: us(ev.VT), PID: chromePipes, TID: int64(ev.Pipe),
				Args: map[string]any{"tid": ev.TID},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": out, "displayTimeUnit": "ns"})
}

// WriteFile writes the trace to path, choosing the format by extension:
// .json is Chrome trace-event, .jsonl is line-delimited JSON, anything
// else is the canonical binary format.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".json":
		err = t.WriteChrome(f)
	case ".jsonl":
		err = t.WriteJSONL(f)
	default:
		_, err = f.Write(t.CanonicalBytes())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
