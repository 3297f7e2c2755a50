package edge_test

// Gateway unit tests against a sequential in-process emulation: the real
// socket, the dynamic five-tuple claim, barrier admission, and the egress
// path back to the learned external endpoint — without the federation
// machinery (internal/experiments/live_test.go covers that end to end).

import (
	"net"
	"testing"
	"time"

	"modelnet"
	"modelnet/internal/edge"
	"modelnet/internal/netstack"
)

// liveStar builds a 2-VN star emulation with a UDP echo on VN 1 port 7 and
// a gateway mapping VN 0 onto it.
func liveStar(t *testing.T, cfg edge.GatewayConfig) (*modelnet.Emulation, *edge.Gateway) {
	t.Helper()
	attr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(2), QueuePkts: 50}
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(modelnet.Star(2, attr), modelnet.Options{Profile: &ideal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	echoHost := em.NewHost(1)
	var echo *netstack.UDPSocket
	echo, err = echoHost.OpenUDP(7, func(from netstack.Endpoint, dg *netstack.Datagram) {
		echo.SendBytes(from, dg.Data)
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := edge.NewGateway(cfg, nil, func(vn modelnet.VN) *netstack.Host { return em.NewHost(vn) }, em.Sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return em, gw
}

// waitPending polls until the gateway has queued n real arrivals for the
// next barrier; real sockets are asynchronous, virtual time is not.
func waitPending(t *testing.T, gw *edge.Gateway, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if gw.Pending() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("gateway never queued %d arrivals: %+v", n, gw.Stats())
}

func TestGatewaySequentialRoundTrip(t *testing.T) {
	em, gw := liveStar(t, edge.GatewayConfig{
		Listen: "127.0.0.1:0",
		Maps:   []edge.GatewayMap{{VN: 0, DstVN: 1, DstPort: 7}},
	})

	client, err := net.Dial("udp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	// The datagram sits queued — nothing enters virtual time mid-window.
	waitPending(t, gw, 1)
	if st := gw.Stats(); st.IngressPkts != 0 {
		t.Fatalf("ingress admitted before a barrier: %+v", st)
	}

	// The first "barrier" after the arrival only seals it; the next one
	// admits it. Then run the virtual clock: VN0 -> VN1 echo -> VN0, whose
	// delivery egresses out the real socket.
	if n := gw.Admit(0); n != 0 {
		t.Fatalf("admitted %d datagrams at the barrier that sealed them, want 0", n)
	}
	if n := gw.Admit(0); n != 1 {
		t.Fatalf("admitted %d datagrams, want 1", n)
	}
	em.RunFor(modelnet.Seconds(1))

	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "ping" {
		t.Fatalf("echo payload %q, want %q", buf[:n], "ping")
	}
	st := gw.Stats()
	if st.IngressPkts != 1 || st.EgressPkts != 1 {
		t.Fatalf("counters %+v, want 1 in / 1 out", st)
	}
}

func TestGatewayAdmitStampsAtFloor(t *testing.T) {
	em, gw := liveStar(t, edge.GatewayConfig{
		Listen: "127.0.0.1:0",
		Maps:   []edge.GatewayMap{{VN: 0, DstVN: 1, DstPort: 7}},
	})
	client, err := net.Dial("udp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Write([]byte("x"))
	waitPending(t, gw, 1)

	// A floor ahead of the local clock pushes the ingress into the future:
	// nothing may fire before it. The stamp is the admitting barrier's
	// floor, not the sealing one's.
	floor := modelnet.Seconds(0.5)
	gw.Admit(modelnet.Time(0).Add(modelnet.Seconds(0.1)))
	gw.Admit(modelnet.Time(0).Add(floor))
	em.RunFor(modelnet.Seconds(0.4))
	if st := gw.Stats(); st.EgressPkts != 0 {
		t.Fatalf("egress before the floor: %+v", st)
	}
	em.RunFor(modelnet.Seconds(0.2))
	if st := gw.Stats(); st.EgressPkts != 1 {
		t.Fatalf("egress after the floor: %+v, want 1", st)
	}
}

// A paced coordinator reads its wall clock for the floor and then sends it; a
// datagram that reaches the gateway after that reading but before the
// worker's Admit — the worker was descheduled, the frame sat in a socket
// buffer — must not be stamped with that floor: the stamp would precede the
// arrival, and an outside observer would measure a delay shorter than the
// model's. The one-barrier hold makes the datagram wait for a floor that was
// read after it arrived.
func TestGatewayStampNeverPrecedesArrival(t *testing.T) {
	em, gw := liveStar(t, edge.GatewayConfig{
		Listen: "127.0.0.1:0",
		Maps:   []edge.GatewayMap{{VN: 0, DstVN: 1, DstPort: 7}},
	})
	client, err := net.Dial("udp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Virtual nanoseconds are wall nanoseconds since the epoch, as under
	// real-time pacing.
	epoch := time.Now()
	vnow := func() modelnet.Time { return modelnet.Time(time.Since(epoch)) }

	stale := vnow() // the coordinator reads its clock ...
	client.Write([]byte("x"))
	waitPending(t, gw, 1)
	arrived := vnow()                 // ... the datagram arrives, no later than this ...
	if n := gw.Admit(stale); n != 0 { // ... and only then does the floor reach Admit.
		t.Fatalf("admitted %d datagrams at a floor read before they arrived", n)
	}
	if got := em.Totals().Injected; got != 0 {
		t.Fatalf("%d packets injected at the stale floor %v, arrival was by %v", got, stale, arrived)
	}

	fresh := vnow() // the next round's floor is read after this one returned
	if n := gw.Admit(fresh); n != 1 {
		t.Fatalf("admitted %d datagrams at the next barrier, want 1", n)
	}
	if fresh < arrived {
		t.Fatalf("test premise: floor %v read before the arrival %v", fresh, arrived)
	}
	em.RunUntil(fresh - 1)
	if got := em.Totals().Injected; got != 0 {
		t.Fatalf("ingress fired before its stamp %v (arrival by %v)", fresh, arrived)
	}
	em.RunUntil(fresh)
	if got := em.Totals().Injected; got != 1 {
		t.Fatalf("%d packets injected at the stamp %v, want 1", got, fresh)
	}
}
