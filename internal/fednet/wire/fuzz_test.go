package wire

// Fuzz targets for the federation codec. The contract under fuzzing:
// decoding arbitrary bytes never panics and never silently succeeds on a
// structurally invalid message, and every valid message round-trips
// byte-identically. The seed corpus below runs on every `go test ./...`.

import (
	"bytes"
	"testing"

	"modelnet/internal/pipes"
)

func fuzzSeeds(f *testing.F) {
	pw, _ := EncodePacket(&pipes.Packet{
		Seq: 7, Size: 1000, Src: 1, Dst: 2, Route: []pipes.ID{0, 3}, Hop: 1,
	})
	f.Add(DataBatch{Sender: 1, TSeq0: 4, Msgs: []DataMsg{
		{Seq: 9, Kind: KindTunnel, Pid: 3, At: 5, Fire: 6, Pkt: pw},
		{Seq: 10, Kind: KindDelivery, Pid: -1, Lag: 11, Pkt: pw},
	}}.Encode())
	f.Add(DataBatch{Sender: 2, TSeq0: 4, Close: 4, Msgs: []DataMsg{
		{Seq: 9, Kind: KindTunnel, Pid: 3, At: 5, Fire: 6, Pkt: pw},
	}}.Encode())
	f.Add(Counts{Now: 3, Sent: []uint64{0, 2}}.Encode())
	f.Add(Step{Floor: 2, Grant: -1, Expect: []uint64{0, 3}}.Encode())
	f.Add(Step{Floor: 9, Grant: 8, Drain: true, Ckpt: true, Expect: []uint64{1}}.Encode())
	f.Add(StepDone{Counts: Counts{Now: 4, Sent: []uint64{1, 0}}, Next: 6, Safe: 7, SafeTo: []int64{8, 9}}.Encode())
	f.Add(StepDone{Counts: Counts{Sent: []uint64{1}}, Progressed: true, Next: 5, Safe: 9}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
}

// FuzzDecodeData feeds arbitrary bytes to every body decoder: none may
// panic, and a successful DataBatch, Step or StepDone decode must re-encode
// byte-identically (the codec is canonical).
func FuzzDecodeData(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := DecodeDataBatch(b); err == nil {
			if !bytes.Equal(m.Encode(), b) {
				t.Fatalf("DataBatch decode/encode not canonical for %x", b)
			}
			elems := make([][]byte, len(m.Msgs))
			for i, x := range m.Msgs {
				elems[i] = x.Encode()
				if _, err := x.Pkt.Packet(); err == nil {
					if _, err := EncodePacket(mustPacket(t, &m.Msgs[i].Pkt)); err != nil {
						t.Fatalf("decoded packet failed to re-encode: %v", err)
					}
				}
			}
			if !bytes.Equal(EncodeDataBatch(m.Sender, m.TSeq0, m.Close, elems), b) {
				t.Fatalf("EncodeDataBatch not canonical for %x", b)
			}
		}
		if m, err := DecodeStep(b); err == nil && !bytes.Equal(m.Encode(), b) {
			t.Fatalf("Step decode/encode not canonical for %x", b)
		}
		if m, err := DecodeStepDone(b); err == nil && !bytes.Equal(m.Encode(), b) {
			t.Fatalf("StepDone decode/encode not canonical for %x", b)
		}
		_, _ = DecodeCounts(b)
	})
}

func mustPacket(t *testing.T, p *PacketWire) *pipes.Packet {
	t.Helper()
	pkt, err := p.Packet()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// FuzzReadFrame feeds arbitrary byte streams to the stream and datagram
// frame parsers.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendFrame(nil, TDataBatch, []byte("body")))
	f.Add(AppendFrame(nil, TStep, Step{Grant: 12}.Encode()))
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, Version, TDataBatch})
	f.Fuzz(func(t *testing.T, b []byte) {
		if typ, body, err := ParseFrame(b); err == nil {
			if !bytes.Equal(AppendFrame(nil, typ, body), b) {
				t.Fatalf("ParseFrame not canonical for %x", b)
			}
		}
		r := bytes.NewReader(b)
		for {
			if _, _, err := ReadFrame(r); err != nil {
				break
			}
		}
	})
}
