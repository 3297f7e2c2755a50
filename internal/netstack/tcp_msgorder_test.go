package netstack

// Message-marker delivery ordering under segment reordering: markers ride
// the segments that cover their final stream byte, so when segments arrive
// out of order (buffered in c.ooo) or re-arrive coalesced by a
// retransmission, the pendingMsgs machinery must still fire OnMsg exactly
// once per message, in stream order. These tests drive handleSegment
// directly through crafted segments, the receiver-side path a federated
// run exercises when tunneled segments cross a core boundary out of order.

import (
	"fmt"
	"testing"

	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
)

// msgOrderConn establishes a client->server connection and returns the
// server-side conn, the client's port, and the OnMsg capture slice.
func msgOrderConn(t *testing.T) (*testNet, *Conn, *[]string) {
	t.Helper()
	tn := newStarNet(t, 2, 10, 5, 0, emucore.IdealProfile())
	var got []string
	var sconn *Conn
	_, err := tn.hosts[1].Listen(80, func(c *Conn) Handlers {
		sconn = c
		return Handlers{
			OnMsg: func(_ *Conn, obj any) { got = append(got, fmt.Sprint(obj)) },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := tn.hosts[0].Dial(Endpoint{1, 80}, Handlers{})
	tn.sched.Run()
	if sconn == nil || sconn.state != stateEstablished {
		t.Fatal("connection not established")
	}
	if sconn.Remote.Port != cl.Local.Port {
		t.Fatalf("server tracks remote %v, client is %v", sconn.Remote, cl.Local)
	}
	return tn, sconn, &got
}

// seg crafts a data segment from the established client.
func seg(c *Conn, seq uint64, n int, msgs ...MsgMarker) *Segment {
	return &Segment{
		SrcPort: c.Remote.Port,
		DstPort: c.Local.Port,
		Seq:     seq,
		Len:     n,
		Msgs:    msgs,
	}
}

func assertMsgs(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("OnMsg fired %d times (%v), want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OnMsg order %v, want %v", got, want)
		}
	}
}

// TestMsgMarkersReorderedSegments delivers three marker-bearing segments
// in fully reversed order: the first two buffer out of order, the gap fill
// drains them, and OnMsg must fire in stream order regardless.
func TestMsgMarkersReorderedSegments(t *testing.T) {
	tn, c, got := msgOrderConn(t)
	_ = tn
	c.h.onSegment(pipes.VN(0), seg(c, 201, 100, MsgMarker{End: 301, Obj: "C"}))
	c.h.onSegment(pipes.VN(0), seg(c, 101, 100, MsgMarker{End: 201, Obj: "B"}))
	assertMsgs(t, *got) // nothing contiguous yet
	c.h.onSegment(pipes.VN(0), seg(c, 1, 100, MsgMarker{End: 101, Obj: "A"}))
	assertMsgs(t, *got, "A", "B", "C")
	if c.rcvNxt != 301 {
		t.Fatalf("rcvNxt = %d", c.rcvNxt)
	}
	if len(c.pendingMsgs.live()) != 0 {
		t.Fatalf("%d markers still pending", len(c.pendingMsgs.live()))
	}
}

// TestMsgMarkersCoalescedRetransmit buffers an out-of-order segment, then
// receives a retransmission that coalesces the whole range (markers
// repeated): each message must fire exactly once, in order — the duplicate
// marker from the buffered segment is deduplicated by its End offset when
// the out-of-order queue drains.
func TestMsgMarkersCoalescedRetransmit(t *testing.T) {
	_, c, got := msgOrderConn(t)
	c.h.onSegment(pipes.VN(0), seg(c, 101, 100, MsgMarker{End: 201, Obj: "B"}))
	assertMsgs(t, *got)
	c.h.onSegment(pipes.VN(0), seg(c, 1, 300,
		MsgMarker{End: 101, Obj: "A"}, MsgMarker{End: 201, Obj: "B"}, MsgMarker{End: 301, Obj: "C"}))
	assertMsgs(t, *got, "A", "B", "C")
	// The buffered copy of B was dropped, not re-delivered.
	if len(c.pendingMsgs.live()) != 0 || len(c.ooo.live()) != 0 {
		t.Fatalf("pending=%d ooo=%d after coalesce", len(c.pendingMsgs.live()), len(c.ooo.live()))
	}
}

// TestMsgMarkersDuplicateOldSegment re-delivers an already-consumed
// segment: its markers are behind rcvNxt and must not re-fire.
func TestMsgMarkersDuplicateOldSegment(t *testing.T) {
	_, c, got := msgOrderConn(t)
	first := seg(c, 1, 100, MsgMarker{End: 101, Obj: "A"})
	c.h.onSegment(pipes.VN(0), first)
	assertMsgs(t, *got, "A")
	c.h.onSegment(pipes.VN(0), seg(c, 1, 100, MsgMarker{End: 101, Obj: "A"}))
	assertMsgs(t, *got, "A") // no duplicate delivery
	if c.rcvNxt != 101 {
		t.Fatalf("rcvNxt = %d", c.rcvNxt)
	}
}
