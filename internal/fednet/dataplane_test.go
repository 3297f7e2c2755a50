package fednet

// White-box data-plane tests: batch chunking under the datagram bound, a
// real two-socket UDP loopback exchange of a chunked batch, and the
// oversized-datagram regression (a frame the kernel would silently truncate
// or drop must instead fail the run loudly).

import (
	"net"
	"strings"
	"testing"
	"time"

	"modelnet/internal/parcore"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

func TestChunkBatchRespectsLimit(t *testing.T) {
	mk := func(sizes ...int) [][]byte {
		elems := make([][]byte, len(sizes))
		for i, n := range sizes {
			elems[i] = make([]byte, n)
		}
		return elems
	}
	ranges, err := chunkBatch(mk(100, 100, 100, 100), batchOverhead+250, true)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 2}, {2, 4}}
	if len(ranges) != 2 || ranges[0] != want[0] || ranges[1] != want[1] {
		t.Fatalf("ranges %v, want %v", ranges, want)
	}
	// A single element exactly at the bound fits alone.
	ranges, err = chunkBatch(mk(250, 1), batchOverhead+250, true)
	if err != nil || len(ranges) != 2 {
		t.Fatalf("ranges %v err %v", ranges, err)
	}
	// One byte over the bound is an error on the strict (UDP) plane — not
	// a truncated datagram.
	if _, err := chunkBatch(mk(251), batchOverhead+250, true); err == nil {
		t.Fatal("oversized element accepted on the strict plane")
	}
	// On the stream (TCP) plane the bound only shapes chunks: an oversized
	// element gets a frame of its own, neighbors keep theirs.
	ranges, err = chunkBatch(mk(100, 500, 100, 100), batchOverhead+250, false)
	if err != nil {
		t.Fatalf("oversized element rejected on the stream plane: %v", err)
	}
	want = [][2]int{{0, 1}, {1, 2}, {2, 4}}
	if len(ranges) != 3 || ranges[0] != want[0] || ranges[1] != want[1] || ranges[2] != want[2] {
		t.Fatalf("stream ranges %v, want %v", ranges, want)
	}
	// Empty input produces no frames.
	if ranges, err := chunkBatch(nil, 1000, true); err != nil || len(ranges) != 0 {
		t.Fatalf("empty batch: ranges %v err %v", ranges, err)
	}
}

// testMsg builds a small cross-shard tunnel message.
func testMsg(seq uint64, routeLen int) parcore.Msg {
	route := make([]pipes.ID, routeLen)
	for i := range route {
		route[i] = pipes.ID(i)
	}
	return parcore.Msg{
		Pkt: &pipes.Packet{
			Seq: seq, Size: 100, Src: 1, Dst: 2, Route: route, Hop: 0,
			Injected: vtime.Time(7),
		},
		Pid:    0,
		At:     vtime.Time(10),
		Fire:   vtime.Time(12),
		Sender: 0,
		Seq:    seq,
	}
}

// openUDPPair wires two UDP data planes over loopback with the given
// datagram bound and returns shard 0's plane and shard 1's collector.
func openUDPPair(t *testing.T, maxDatagram int) (*dataPlane, *dataPlane, *collector) {
	t.Helper()
	socks := make([]*net.UDPConn, 2)
	addrs := make([]string, 2)
	for i := range socks {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		socks[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	col0, col1 := newCollector(2), newCollector(2)
	dp0, err := openDataPlane(DataUDP, 0, addrs, socks[0], nil, col0, time.Second, maxDatagram, false, false)
	if err != nil {
		t.Fatal(err)
	}
	dp0.start()
	t.Cleanup(dp0.close)
	dp1, err := openDataPlane(DataUDP, 1, addrs, socks[1], nil, col1, time.Second, maxDatagram, false, false)
	if err != nil {
		t.Fatal(err)
	}
	dp1.start()
	t.Cleanup(dp1.close)
	return dp0, dp1, col1
}

func TestSendBatchChunksAndDelivers(t *testing.T) {
	dp0, _, col1 := openUDPPair(t, 1024)
	const n = 100
	msgs := make([]parcore.Msg, n)
	for i := range msgs {
		msgs[i] = testMsg(uint64(i+1), 3)
	}
	if err := dp0.sendBatch(1, msgs, 1); err != nil {
		t.Fatal(err)
	}
	if dp0.frames <= 1 {
		t.Fatalf("expected the batch to chunk into multiple frames, got %d", dp0.frames)
	}
	if dp0.frames >= n {
		t.Fatalf("batching degenerated to one frame per message (%d frames for %d messages)", dp0.frames, n)
	}
	got, err := col1.wait([]uint64{n, 0}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d of %d messages", len(got), n)
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) || m.Sender != 0 || m.Pkt.Seq != uint64(i+1) {
			t.Fatalf("message %d out of order or corrupt: %+v", i, m)
		}
	}
}

func TestSendBatchRejectsOversizedMessage(t *testing.T) {
	dp0, _, _ := openUDPPair(t, 1024)
	// A route of 1000 pipes encodes to ~4 KB — over the 1 KB bound, and
	// impossible to chunk because it is a single message.
	err := dp0.sendBatch(1, []parcore.Msg{testMsg(1, 1000)}, 1)
	if err == nil {
		t.Fatal("oversized single message accepted on the UDP plane")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("error does not name the bound: %v", err)
	}
	if dp0.frames != 0 {
		t.Fatalf("%d frames written despite the error", dp0.frames)
	}
}

func TestSendBatchRespectsConfiguredBound(t *testing.T) {
	// The same message set that fails at 1 KB passes with the bound raised.
	dp0, _, col1 := openUDPPair(t, 16<<10)
	if err := dp0.sendBatch(1, []parcore.Msg{testMsg(1, 1000)}, 1); err != nil {
		t.Fatalf("message under the raised bound rejected: %v", err)
	}
	got, err := col1.wait([]uint64{1, 0}, 5*time.Second)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d messages, err %v", len(got), err)
	}
	if len(got[0].Pkt.Route) != 1000 {
		t.Fatalf("route truncated to %d hops", len(got[0].Pkt.Route))
	}
}
