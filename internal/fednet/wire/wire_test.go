package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// Encode is the reference encoder of a TDataBatch body, one message at a
// time; EncodeDataBatch, which the data plane uses, must match it byte for
// byte.
func (m DataBatch) Encode() []byte {
	var e Enc
	e.U16(m.Sender)
	e.U64(m.TSeq0)
	e.U64(m.Close)
	e.U32(uint32(len(m.Msgs)))
	for _, x := range m.Msgs {
		x.append(&e)
	}
	return e.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 4096)}
	for i, b := range bodies {
		if err := WriteFrame(&buf, uint8(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range bodies {
		typ, body, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != uint8(i+1) || !bytes.Equal(body, b) {
			t.Fatalf("frame %d: got type %d, %d bytes", i, typ, len(body))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFrameRejectsBadVersion(t *testing.T) {
	raw := AppendFrame(nil, TDataBatch, []byte("x"))
	raw[4] = Version + 1
	if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("version mismatch accepted")
	}
	if _, _, err := ParseFrame(raw); err == nil {
		t.Fatal("version mismatch accepted by ParseFrame")
	}
}

func TestParseFrameLengthMismatch(t *testing.T) {
	raw := AppendFrame(nil, TDataBatch, []byte("abc"))
	if _, _, err := ParseFrame(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated datagram accepted")
	}
	if _, _, err := ParseFrame(append(raw, 0)); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

func TestSyncMessageRoundTrips(t *testing.T) {
	c, err := DecodeCounts(Counts{Now: 42, Sent: []uint64{1, 0, 7}}.Encode())
	if err != nil || c.Now != 42 || !reflect.DeepEqual(c.Sent, []uint64{1, 0, 7}) {
		t.Fatalf("counts: %+v, %v", c, err)
	}
	st, err := DecodeStep(Step{Floor: 11, Grant: -1, Expect: []uint64{2, 0}}.Encode())
	if err != nil || st.Floor != 11 || st.Grant != -1 || !reflect.DeepEqual(st.Expect, []uint64{2, 0}) {
		t.Fatalf("step: %+v, %v", st, err)
	}
	sd, err := DecodeStepDone(StepDone{
		Counts: Counts{Now: 6, Sent: []uint64{1, 2}},
		Next:   7, Safe: 8, SafeTo: []int64{3, 4},
	}.Encode())
	if err != nil || sd.Next != 7 || sd.Safe != 8 || sd.Counts.Now != 6 ||
		!reflect.DeepEqual(sd.Counts.Sent, []uint64{1, 2}) || !reflect.DeepEqual(sd.SafeTo, []int64{3, 4}) {
		t.Fatalf("stepdone: %+v, %v", sd, err)
	}
	st, err = DecodeStep(Step{Grant: 5, Drain: true, Ckpt: true, Expect: []uint64{1}}.Encode())
	if err != nil || st.Grant != 5 || !st.Drain || !st.Ckpt {
		t.Fatalf("drain step: %+v, %v", st, err)
	}
	sd, err = DecodeStepDone(StepDone{Counts: Counts{Now: 8, Sent: []uint64{3}}, Progressed: true}.Encode())
	if err != nil || !sd.Progressed || sd.Counts.Now != 8 || len(sd.Counts.Sent) != 1 {
		t.Fatalf("drain stepdone: %+v, %v", sd, err)
	}
	// Flag bytes are canonical: anything but 0 or 1 is rejected.
	raw := Step{Grant: 5}.Encode()
	raw[16] = 2
	if _, err := DecodeStep(raw); err == nil {
		t.Fatal("non-canonical drain flag accepted")
	}
}

func TestDataRoundTrip(t *testing.T) {
	pkt := &pipes.Packet{
		Seq:      1<<48 | 77,
		Size:     1028,
		Src:      3,
		Dst:      250,
		Route:    []pipes.ID{4, 9, 1},
		Hop:      1,
		Injected: vtime.Time(12345),
		Lag:      vtime.Duration(6),
	}
	pw, err := EncodePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	m := DataBatch{Sender: 2, TSeq0: 1, Msgs: []DataMsg{{Seq: 10, Kind: KindTunnel, Pid: 9, At: 100, Lag: 0, Fire: 200, Pkt: pw}}}
	got, err := DecodeDataBatch(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	back, err := got.Msgs[0].Pkt.Packet()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, pkt) {
		t.Fatalf("packet round trip:\n got %+v\nwant %+v", back, pkt)
	}
	if got.Sender != 2 || got.Msgs[0].Seq != 10 || got.Msgs[0].Fire != 200 {
		t.Fatalf("envelope round trip: %+v", got)
	}
}

func TestDataBatchRoundTrip(t *testing.T) {
	pw1, err := EncodePacket(&pipes.Packet{
		Seq: 9, Size: 500, Src: 1, Dst: 2, Route: []pipes.ID{0, 3}, Hop: 1,
		Injected: vtime.Time(50), Lag: vtime.Duration(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	pw2, err := EncodePacket(&pipes.Packet{Seq: 10, Size: 40, Src: 2, Dst: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := DataBatch{
		Sender: 3,
		TSeq0:  17,
		Msgs: []DataMsg{
			{Seq: 100, Kind: KindTunnel, Pid: 3, At: 5, Fire: 6, Pkt: pw1},
			{Seq: 101, Kind: KindDelivery, Pid: -1, At: 7, Lag: 1, Fire: 8, Pkt: pw2},
		},
	}
	raw := b.Encode()
	got, err := DecodeDataBatch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sender != b.Sender || got.TSeq0 != b.TSeq0 || len(got.Msgs) != len(b.Msgs) {
		t.Fatalf("batch header round trip: %+v", got)
	}
	for i := range got.Msgs {
		g, w := got.Msgs[i], b.Msgs[i]
		if g.Seq != w.Seq || g.Kind != w.Kind || g.Pid != w.Pid || g.At != w.At || g.Lag != w.Lag || g.Fire != w.Fire {
			t.Fatalf("element %d envelope round trip: %+v", i, g)
		}
		gp, err := g.Pkt.Packet()
		if err != nil {
			t.Fatal(err)
		}
		wp, err := w.Pkt.Packet()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gp, wp) {
			t.Fatalf("element %d packet round trip:\n got %+v\nwant %+v", i, gp, wp)
		}
	}
	if !bytes.Equal(got.Encode(), raw) {
		t.Fatal("batch re-encode not canonical")
	}
	// The raw-element assembler must agree with the struct encoder.
	elems := make([][]byte, len(b.Msgs))
	for i, m := range b.Msgs {
		elems[i] = m.Encode()
	}
	if !bytes.Equal(EncodeDataBatch(b.Sender, b.TSeq0, b.Close, elems), raw) {
		t.Fatal("EncodeDataBatch diverges from DataBatch.Encode")
	}
	// A close marker must name the batch's own last element and round-trip.
	b.Close = b.TSeq0 + uint64(len(b.Msgs)) - 1
	got, err = DecodeDataBatch(b.Encode())
	if err != nil || got.Close != b.Close {
		t.Fatalf("close marker round trip: %+v, %v", got, err)
	}
	b.Close++
	if _, err := DecodeDataBatch(b.Encode()); err == nil {
		t.Fatal("close marker beyond the batch accepted")
	}
}

func TestDataBatchRejectsCorruptStructure(t *testing.T) {
	pw, _ := EncodePacket(&pipes.Packet{Route: []pipes.ID{1}, Hop: 0})
	ok := DataMsg{Seq: 1, Kind: KindDelivery, Pid: -1, Pkt: pw}
	cases := []DataBatch{
		{Sender: 0, TSeq0: 1},                                             // empty batch
		{Sender: 0, TSeq0: 0, Msgs: []DataMsg{ok}},                        // zero channel seq
		{TSeq0: 1, Msgs: []DataMsg{{Kind: 9, Pkt: pw}}},                   // unknown kind
		{TSeq0: 1, Msgs: []DataMsg{{Kind: KindTunnel, Pid: -2, Pkt: pw}}}, // tunnel without pipe
	}
	for i, m := range cases {
		if _, err := DecodeDataBatch(m.Encode()); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	raw := DataBatch{Sender: 1, TSeq0: 5, Msgs: []DataMsg{ok, ok}}.Encode()
	if _, err := DecodeDataBatch(raw); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeDataBatch(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnregisteredPayloadErrors(t *testing.T) {
	type private struct{ X int }
	if _, err := EncodePacket(&pipes.Packet{Payload: private{1}}); err == nil {
		t.Fatal("unregistered payload encoded")
	}
	if _, err := DecodePayload([]byte{0xfe, 0xff}); err == nil {
		t.Fatal("unregistered payload id decoded")
	}
}
