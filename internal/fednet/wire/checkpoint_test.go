package wire

import (
	"bytes"
	"reflect"
	"testing"

	"modelnet/internal/pipes"
)

func checkpointSeed() *Checkpoint {
	pw, _ := EncodePacket(&pipes.Packet{
		Seq: 42, Size: 600, Src: 0, Dst: 5, Route: []pipes.ID{1, 2}, Hop: 1, Epoch: 1,
	})
	return &Checkpoint{
		Shard: 1, Cores: 3, Round: 7, NowNs: 12345678,
		SchedSeq: 900, SchedFired: 850,
		Events: []CkptEvent{
			{AtNs: 13000000, Seq: 880, Tag: -2},
			{AtNs: 13000000, Seq: 881, Tag: 0},
			{AtNs: 14000000, Seq: 700, Tag: 5},
		},
		OutboxSeq: 321,
		Sent:      []uint64{10, 0, 44},
		Inbox:     []uint64{9, 0, 40},
		Injected:  100, DeliveredPkts: 80, NoRoute: 1, PhysDrops: 2, VirtualDrops: 3,
		InFlight:        14,
		DropsByReason:   []uint64{0, 1, 2, 3, 0, 0},
		DeliverySamples: 80,
		Buckets:         []CkptBucket{{FireNs: 13500000, Count: 2}, {FireNs: 14000000, Count: 1}},
		HasDyn:          true,
		Dyn: CkptDyn{
			Applied: 6, Reroutes: 2,
			Down:      []uint32{3},
			BasesNs:   []int64{10000000, 0},
			PendingNs: []int64{15000000},
		},
		Pipes: []CkptPipe{
			{
				ID: 2, BandwidthBps: 8e6, LatencyNs: 5000000, LossRate: 0.25, QueuePkts: 50,
				RedAvg: 0, RedCount: -1, RedIdle: true,
				LastTxDoneNs: 12000000, LastExitNs: 12900000, Draws: 17,
				Accepted: 30, Drops: []uint64{0, 2, 0, 0, 1, 0}, BytesIn: 18000, BytesOut: 16000, Delivered: 27,
				Entries: []CkptEntry{
					{Pkt: pw, TxDoneNs: 12300000, ExitNs: 12800000},
					{Pkt: pw, TxDoneNs: 12400000, ExitNs: 12900000},
				},
			},
			{
				ID: 4, BandwidthBps: 1e6, LatencyNs: 1000000, QueuePkts: 10,
				Down: true, HasRED: true,
				REDMinThresh: 2.5, REDMaxThresh: 7.5, REDMaxP: 0.1, REDWeight: 0.002,
				RedAvg: 3.25, RedCount: 4, RedIdleSinceNs: 11000000,
			},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := checkpointSeed()
	b := c.Encode()
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", c, got)
	}
	if !bytes.Equal(got.Encode(), b) {
		t.Fatal("re-encode not canonical")
	}
	// Minimal checkpoint (no dynamics, no pipes) round-trips too.
	m := &Checkpoint{Shard: 0, Cores: 2, Round: 1}
	got2, err := DecodeCheckpoint(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, m) {
		t.Fatalf("minimal round trip diverged: %+v", got2)
	}
}

func TestDecodeCheckpointRejectsCorrupt(t *testing.T) {
	b := checkpointSeed().Encode()
	// Every truncation errors, never panics.
	for n := 0; n < len(b); n++ {
		if _, err := DecodeCheckpoint(b[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Trailing garbage errors (exact-length contract).
	if _, err := DecodeCheckpoint(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	// Non-canonical boolean byte errors.
	c := checkpointSeed()
	c.HasDyn = false
	c.Pipes = nil
	mb := c.Encode()
	for i := range mb {
		if mb[i] == 0 || mb[i] == 1 {
			continue
		}
		break
	}
	// Find the HasDyn byte: it is the last byte before the pipes count.
	mb[len(mb)-5] = 2 // HasDyn position for a pipe-free checkpoint
	if _, err := DecodeCheckpoint(mb); err == nil {
		t.Fatal("non-canonical bool decoded")
	}
	// Pipes out of ID order error.
	c2 := checkpointSeed()
	c2.Pipes[0].ID, c2.Pipes[1].ID = 4, 2
	if _, err := DecodeCheckpoint(c2.Encode()); err == nil {
		t.Fatal("unordered pipes decoded")
	}
}

func TestRecoveryFrameRoundTrips(t *testing.T) {
	fl, err := DecodeFail(Fail{Round: 9}.Encode())
	if err != nil || fl.Round != 9 {
		t.Fatalf("fail: %v %+v", err, fl)
	}
	rc, err := DecodeRecover(Recover{Sent: []uint64{5, 0, 7}}.Encode())
	if err != nil || !reflect.DeepEqual(rc.Sent, []uint64{5, 0, 7}) {
		t.Fatalf("recover: %v %+v", err, rc)
	}
	rs, err := DecodeResend(Resend{Peer: 1}.Encode())
	if err != nil || rs.Peer != 1 {
		t.Fatalf("resend: %v %+v", err, rs)
	}
	for _, b := range [][]byte{nil, {1}, {1, 2, 3}} {
		if _, err := DecodeRecover(append(b, 0xff, 0xff, 0xff, 0xff)); err == nil {
			t.Errorf("recover decoded garbage %x", b)
		}
		if _, err := DecodeResend(b); err == nil {
			t.Errorf("resend decoded %x", b)
		}
	}
	if _, err := DecodeFail(nil); err == nil {
		t.Error("empty fail decoded")
	}
}

// FuzzDecodeCheckpoint: arbitrary bytes never panic the checkpoint decoder,
// and any blob that decodes must re-encode byte-identically (canonical
// form) — the recovery protocol byte-compares these blobs.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(checkpointSeed().Encode())
	min := &Checkpoint{Cores: 2}
	f.Add(min.Encode())
	noDyn := checkpointSeed()
	noDyn.HasDyn = false
	noDyn.Dyn = CkptDyn{}
	f.Add(noDyn.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		if !bytes.Equal(c.Encode(), b) {
			t.Fatalf("checkpoint decode/encode not canonical for %x", b)
		}
		DecodeFail(b)
		DecodeRecover(b)
		DecodeResend(b)
	})
}
