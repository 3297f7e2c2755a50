// Live edge demo: real packets through an emulated core.
//
// This program runs THREE kinds of process:
//
//   - a coordinator (this main), which drives a 2-worker federated run of
//     the live-ring scenario under real-time pacing, with an edge gateway
//     leased on the worker homing VN 0;
//   - two federation workers (this binary re-executed by fedspawn), each
//     emulating half the ring's pipes in its own process;
//   - one measurement client (this binary re-executed with
//     MODELNET_LIVE_CLIENT set), which is deliberately not linked into any
//     emulator state at runtime: it opens a plain UDP socket, pings the
//     gateway address it was handed, and measures what comes back — the
//     paper's unmodified-application story, end to end.
//
// The client's datagrams enter the virtual ring at VN 0, traverse it to the
// echo responder at VN 6 (three 5 ms ring hops and two 1 ms access links
// each way), and return through the gateway. Because window release is
// slaved to the wall clock, the measured round trip must be at least the
// modeled 34 ms — the demo asserts exactly that, and exits non-zero if the
// emulation ever beats its own model (or drops the loss-free pings).
//
//	go run ./examples/live            # ~4s, self-contained over loopback
//	go run ./examples/live -loss 20   # watch the client measure ring loss
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"time"

	"modelnet"
	"modelnet/internal/edge"
	"modelnet/internal/experiments"
	"modelnet/internal/fednet"
)

const clientEnv = "MODELNET_LIVE_CLIENT"

// clientReport is what the external client prints on stdout as JSON.
type clientReport struct {
	Sent     int     `json:"sent"`
	Received int     `json:"received"`
	MinRTTMS float64 `json:"min_rtt_ms"`
	AvgRTTMS float64 `json:"avg_rtt_ms"`
	LossPct  float64 `json:"loss_pct"`
}

func main() {
	fednet.MaybeRunWorker() // federation workers divert here
	if addr := os.Getenv(clientEnv); addr != "" {
		clientMain(addr)
		return
	}

	duration := flag.Float64("duration", 3, "run window in (wall = virtual) seconds")
	loss := flag.Float64("loss", 0, "ring-link loss percentage the client should observe")
	pings := flag.Int("pings", 12, "datagrams the external client sends (max 255: one-byte sequence)")
	metricsListen := flag.String("metrics-listen", "", "serve live coordinator metrics (and pprof under /debug/pprof/) on host:port while the run is paced")
	flag.Parse()
	if *pings < 1 || *pings > 255 {
		log.Fatalf("-pings %d: the demo's sequence number is one byte, use 1..255", *pings)
	}

	spec := experiments.LiveRingSpec{
		Routers: 6, VNsPerRouter: 2,
		EchoVN: 6, EchoPort: 7,
		RingLossPct: *loss,
		DurationSec: *duration, Seed: 1,
	}
	sc, ok := experiments.Lookup(experiments.ScenarioLiveRing)
	if !ok {
		log.Fatalf("scenario %s is not in the table", experiments.ScenarioLiveRing)
	}
	sc.Spec = spec
	ideal := modelnet.IdealProfile()

	var client *exec.Cmd
	var clientOut []byte
	clientErr := make(chan error, 1)

	res, err := experiments.Run(sc, modelnet.Options{Cores: 2, Profile: &ideal, Federate: &modelnet.FederateOptions{
		Spawn:         true,
		RealTime:      true,
		MetricsListen: *metricsListen,
		Edge: &edge.GatewayConfig{
			Listen: "127.0.0.1:0",
			Maps:   []edge.GatewayMap{{VN: 0, DstVN: spec.EchoVN, DstPort: spec.EchoPort}},
		},
		OnLive: func(addrs []string) {
			gw := ""
			for shard, a := range addrs {
				if a != "" {
					gw = a
					fmt.Printf("gateway: shard %d listening on %s\n", shard, a)
				}
			}
			// The measurement client is a separate OS process linked only
			// to the standard library at runtime: re-exec ourselves in
			// client mode with plain sockets.
			self, err := os.Executable()
			if err != nil {
				log.Fatal(err)
			}
			client = exec.Command(self)
			client.Env = append(os.Environ(),
				clientEnv+"="+gw,
				"MODELNET_LIVE_PINGS="+fmt.Sprint(*pings),
				"MODELNET_LIVE_WINDOW_MS="+fmt.Sprint(int(*duration*1000)-500),
			)
			client.Stderr = os.Stderr
			go func() {
				out, err := client.Output()
				clientOut = out
				clientErr <- err
			}()
		},
	}})
	if err != nil {
		log.Fatal(err)
	}
	if err := <-clientErr; err != nil {
		log.Fatalf("live client: %v", err)
	}
	var cr clientReport
	if err := json.Unmarshal(clientOut, &cr); err != nil {
		log.Fatalf("live client output %q: %v", clientOut, err)
	}

	oneWay := time.Duration(spec.OneWay())
	fmt.Printf("client : %d/%d pings returned (%.1f%% loss), RTT min %.1f ms avg %.1f ms (model floor %.0f ms)\n",
		cr.Received, cr.Sent, cr.LossPct, cr.MinRTTMS, cr.AvgRTTMS, (2*oneWay).Seconds()*1000)
	rep, lr := res.Fed, res.App.(experiments.LiveRingReport)
	fmt.Printf("core   : gateway %d in / %d out, echo responder answered %d, %d windows (%d serial)\n",
		rep.Edge.IngressPkts, rep.Edge.EgressPkts, lr.Echoed, rep.Sync.Windows, rep.Sync.SerialRounds)

	// The demo's contract: with loss-free links every ping comes home, and
	// no reply may beat the model's round trip — the emulated latency is
	// real latency to the unlinked client.
	if cr.Received == 0 {
		log.Fatal("FAIL: no ping survived the round trip")
	}
	if *loss == 0 && cr.Received < cr.Sent {
		log.Fatalf("FAIL: lost %d of %d pings on loss-free links", cr.Sent-cr.Received, cr.Sent)
	}
	if min := time.Duration(cr.MinRTTMS * float64(time.Millisecond)); min < 2*oneWay {
		log.Fatalf("FAIL: min RTT %v beats the modeled %v round trip", min, 2*oneWay)
	}
	fmt.Println("OK: the external client observed the emulated ring's latency through real sockets")
}

// clientMain is the external measurement process: standard library only,
// no emulator state — as far as it can tell, it is pinging a real server.
func clientMain(addr string) {
	pings := 10
	fmt.Sscan(os.Getenv("MODELNET_LIVE_PINGS"), &pings)
	windowMS := 2000
	fmt.Sscan(os.Getenv("MODELNET_LIVE_WINDOW_MS"), &windowMS)

	conn, err := net.Dial("udp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	sentAt := make([]time.Time, pings)
	var rep clientReport
	var rttSum time.Duration
	minRTT := time.Hour
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		_ = conn.SetReadDeadline(time.Now().Add(time.Duration(windowMS) * time.Millisecond))
		for rep.Received < pings {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			if n < 1 || int(buf[0]) >= pings {
				continue
			}
			rtt := time.Since(sentAt[buf[0]])
			rttSum += rtt
			if rtt < minRTT {
				minRTT = rtt
			}
			rep.Received++
		}
	}()
	payload := make([]byte, 64)
	for i := 0; i < pings; i++ {
		payload[0] = byte(i)
		sentAt[i] = time.Now()
		if _, err := conn.Write(payload); err != nil {
			log.Fatal(err)
		}
		rep.Sent++
		time.Sleep(80 * time.Millisecond)
	}
	<-done

	if rep.Received > 0 {
		rep.MinRTTMS = float64(minRTT) / float64(time.Millisecond)
		rep.AvgRTTMS = float64(rttSum) / float64(rep.Received) / float64(time.Millisecond)
	}
	rep.LossPct = 100 * float64(rep.Sent-rep.Received) / float64(rep.Sent)
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
}
