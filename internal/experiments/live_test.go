package experiments

// The live edge acceptance test: a real UDP client — plain net sockets,
// touching no emulator state — exchanges datagrams with a 2-worker
// federated ring over loopback. Its pings enter through a worker's edge
// gateway, traverse the emulated ring to the echo VN, and come back out
// the gateway; the measured round trips must respect the topology's
// modeled latency (pacing makes virtual delays real), and the gateway
// counters must account for every boundary crossing.

import (
	"net"
	"testing"
	"time"

	"modelnet"
	"modelnet/internal/edge"
	"modelnet/internal/vtime"
)

// liveClientResult is what the external client measured.
type liveClientResult struct {
	sent, recvd int
	minRTT      time.Duration
	err         error
}

// runLiveClient plays the external application: pings the gateway and
// waits for echoes. It runs while the federation's clock is live.
func runLiveClient(addr string, pings int, gap time.Duration, window time.Duration) liveClientResult {
	res := liveClientResult{minRTT: time.Hour}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		res.err = err
		return res
	}
	defer conn.Close()
	sentAt := make([]time.Time, pings)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		_ = conn.SetReadDeadline(time.Now().Add(window))
		for res.recvd < pings {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if n < 1 || int(buf[0]) >= pings {
				continue
			}
			if rtt := time.Since(sentAt[buf[0]]); rtt < res.minRTT {
				res.minRTT = rtt
			}
			res.recvd++
		}
	}()
	payload := make([]byte, 64)
	for i := 0; i < pings; i++ {
		payload[0] = byte(i)
		sentAt[i] = time.Now()
		if _, err := conn.Write(payload); err != nil {
			res.err = err
			return res
		}
		res.sent++
		time.Sleep(gap)
	}
	<-done
	return res
}

// liveMode is a paced 2-worker federation holding an edge gateway lease;
// onLive runs once the gateways are bound, before the clock starts.
func liveMode(gw *edge.GatewayConfig, onLive func(gatewayAddrs []string)) modelnet.Options {
	return modelnet.Options{Profile: &ideal, Cores: 2, Federate: &modelnet.FederateOptions{
		Spawn: true, RealTime: true, Pace: vtime.Millisecond,
		Edge: gw, OnLive: onLive,
	}}
}

func TestLiveEdgeRoundTripFederated(t *testing.T) {
	if testing.Short() {
		t.Skip("live edge test paces virtual time against the wall clock")
	}
	spec := LiveRingSpec{
		Routers: 6, VNsPerRouter: 2,
		EchoVN: 6, EchoPort: 7, // router 3's first VN: diametric from VN 0
		DurationSec: 2.5, Seed: 3,
	}
	results := make(chan liveClientResult, 1)
	res := run(t, scenarioOf(t, ScenarioLiveRing, spec), liveMode(
		&edge.GatewayConfig{
			Listen: "127.0.0.1:0",
			Maps:   []edge.GatewayMap{{VN: 0, DstVN: spec.EchoVN, DstPort: spec.EchoPort}},
		},
		func(addrs []string) {
			addr := ""
			for _, a := range addrs {
				if a != "" {
					addr = a
				}
			}
			go func() {
				// 10 pings over the first second; read until shortly
				// before the virtual (= wall) deadline.
				results <- runLiveClient(addr, 10, 100*time.Millisecond, 1800*time.Millisecond)
			}()
		}))
	rep := res.Fed
	client := <-results
	if client.err != nil {
		t.Fatal(client.err)
	}

	// The round trip must come back, and no echo can beat the model:
	// pacing slaves virtual time to the wall clock, so a reply cannot
	// leave the gateway before its virtual delivery time has elapsed in
	// wall time. Loopback UDP is reliable and the ring is loss-free here,
	// so losing more than half the pings means the boundary is broken.
	if client.recvd < client.sent/2 {
		t.Fatalf("client got %d of %d echoes back", client.recvd, client.sent)
	}
	minModel := time.Duration(2 * spec.OneWay())
	if client.minRTT < minModel {
		t.Fatalf("min RTT %v beats the modeled round trip %v: virtual delays are not being paced", client.minRTT, minModel)
	}
	if client.minRTT > 100*minModel {
		t.Fatalf("min RTT %v is wildly over the modeled %v", client.minRTT, minModel)
	}

	// The gateway's books must match the client's.
	if rep.Edge.IngressPkts == 0 || rep.Edge.EgressPkts == 0 {
		t.Fatalf("gateway counters empty: %+v", rep.Edge)
	}
	if int(rep.Edge.IngressPkts) > client.sent {
		t.Fatalf("gateway admitted %d ingress datagrams, client only sent %d", rep.Edge.IngressPkts, client.sent)
	}
	if int(rep.Edge.EgressPkts) < client.recvd {
		t.Fatalf("gateway wrote %d egress datagrams, client received %d", rep.Edge.EgressPkts, client.recvd)
	}
	// And the in-emulation responder must have echoed what came through.
	lr := res.App.(LiveRingReport)
	if lr.Echoed == 0 || lr.Echoed != rep.Edge.IngressPkts {
		t.Fatalf("echo responder saw %d pings, gateway admitted %d", lr.Echoed, rep.Edge.IngressPkts)
	}

	// Exactly one worker (the one homing VN 0) should have bound a gateway,
	// and it is set up like any other: from its chunked shard view, paging
	// its ingress flows' routes through the shard table rather than holding
	// the world and a private full bind.
	live, worldLinks := 0, spec.Topology().NumLinks()
	for i, a := range rep.GatewayAddrs {
		if a == "" {
			continue
		}
		live++
		w := rep.Workers[i]
		if w.SetupBytes == 0 || w.RouteRPCs == 0 {
			t.Errorf("gateway shard %d: %d setup chunk bytes, %d route RPCs — ingress did not resolve through the shard table", i, w.SetupBytes, w.RouteRPCs)
		}
		if w.MaterializedPipes >= worldLinks {
			t.Errorf("gateway shard %d materialized %d pipes of a %d-link world: not a shard view", i, w.MaterializedPipes, worldLinks)
		}
	}
	if live != 1 {
		t.Fatalf("%d live gateways, want exactly 1 (addrs %v)", live, rep.GatewayAddrs)
	}
}

// TestLiveEdgeOversizeRejected drives an oversize datagram at a live
// gateway and checks it is rejected (counted, not truncated or delivered).
func TestLiveEdgeOversizeRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("live edge test paces virtual time against the wall clock")
	}
	spec := LiveRingSpec{
		Routers: 4, VNsPerRouter: 2,
		EchoVN: 4, EchoPort: 7,
		DurationSec: 1.0, Seed: 5,
	}
	rep := run(t, scenarioOf(t, ScenarioLiveRing, spec), liveMode(
		&edge.GatewayConfig{
			Listen:      "127.0.0.1:0",
			MaxDatagram: 256,
			Maps:        []edge.GatewayMap{{VN: 0, DstVN: spec.EchoVN, DstPort: 7}},
		},
		func(addrs []string) {
			addr := ""
			for _, a := range addrs {
				if a != "" {
					addr = a
				}
			}
			go func() {
				conn, err := net.Dial("udp", addr)
				if err != nil {
					return
				}
				defer conn.Close()
				conn.Write(make([]byte, 512)) // over the 256-byte bound
				conn.Write(make([]byte, 64))  // under it
				time.Sleep(300 * time.Millisecond)
			}()
		})).Fed
	if rep.Edge.Oversize != 1 {
		t.Fatalf("oversize counter = %d, want 1 (stats %+v)", rep.Edge.Oversize, rep.Edge)
	}
	if rep.Edge.IngressPkts != 1 {
		t.Fatalf("admitted %d datagrams, want only the in-bound one", rep.Edge.IngressPkts)
	}
}
