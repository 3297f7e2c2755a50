package fednet_test

// Loopback federation tests: a small CBR ring runs as one sequential
// process, as an in-process parallel cluster, and as a real 2-process
// federation (the test binary re-execs itself as the workers), and all
// three must agree byte-for-byte on counters and delivery times. Both data
// planes are exercised.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"modelnet"
	"modelnet/internal/fednet"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

func TestMain(m *testing.M) {
	fednet.MaybeRunWorker() // never returns in a spawned worker process
	os.Exit(m.Run())
}

// testRingParams parameterizes the test scenario.
type testRingParams struct {
	Routers      int     `json:"routers"`
	VNsPerRouter int     `json:"vns_per_router"`
	Packets      int     `json:"packets"`
	PeriodMS     float64 `json:"period_ms"`
	Bytes        int     `json:"bytes"`
}

var testParams = testRingParams{Routers: 4, VNsPerRouter: 3, Packets: 30, PeriodMS: 10, Bytes: 500}

func testRingTopology(p testRingParams) *modelnet.Graph {
	ring := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(100), LatencySec: modelnet.Ms(5), QueuePkts: 100}
	access := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(1), QueuePkts: 50}
	return modelnet.Ring(p.Routers, p.VNsPerRouter, ring, access)
}

// installTestRing sets up the workload for every VN the caller owns: a sink
// on port 9 and a CBR flow to the diametrically opposite VN. The plan is a
// pure function of the parameters, so every mode installs identical traffic.
func installTestRing(p testRingParams, n int, homed func(pipes.VN) bool,
	host func(pipes.VN) *netstack.Host, sched func(pipes.VN) *vtime.Scheduler) error {
	period := vtime.DurationOf(p.PeriodMS / 1000)
	for v := 0; v < n; v++ {
		vn := pipes.VN(v)
		if !homed(vn) {
			continue
		}
		h := host(vn)
		if _, err := h.OpenUDP(9, nil); err != nil {
			return err
		}
		s, err := h.OpenUDP(0, nil)
		if err != nil {
			return err
		}
		dst := netstack.Endpoint{VN: pipes.VN((v + n/2) % n), Port: 9}
		sc := sched(vn)
		left := p.Packets
		var send func()
		send = func() {
			s.SendTo(dst, p.Bytes, nil)
			left--
			if left > 0 {
				sc.After(period, send)
			}
		}
		// Stagger starts deterministically across the population.
		sc.After(vtime.Duration(v)*period/vtime.Duration(n)+1, send)
	}
	return nil
}

func init() {
	fednet.Register("fednet-test-ring", fednet.Scenario{
		Build: func(params json.RawMessage) (*modelnet.Graph, error) {
			var p testRingParams
			if err := json.Unmarshal(params, &p); err != nil {
				return nil, err
			}
			return testRingTopology(p), nil
		},
		Install: func(env *fednet.WorkerEnv, params json.RawMessage) (func() json.RawMessage, error) {
			var p testRingParams
			if err := json.Unmarshal(params, &p); err != nil {
				return nil, err
			}
			err := installTestRing(p, env.NumVNs(), env.Homed, env.NewHost,
				func(pipes.VN) *vtime.Scheduler { return env.Sched })
			return nil, err
		},
	})
}

const testRunFor = 1.0 // virtual seconds: every flow drains well before this

// runLocal drives the scenario without sockets, sequentially or in-process
// parallel, and returns counters plus the sorted delivery times.
func runLocal(t *testing.T, cores int, parallel bool) (modelnet.Totals, []float64) {
	t.Helper()
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(testRingTopology(testParams), modelnet.Options{
		Cores: cores, Parallel: parallel, Profile: &ideal, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var deliveries []float64
	em.OnDeliver(func(_ *pipes.Packet, at modelnet.Time) {
		mu.Lock() // in parallel mode the hook fires concurrently across shards
		deliveries = append(deliveries, at.Seconds())
		mu.Unlock()
	})
	err = installTestRing(testParams, em.NumVNs(),
		func(pipes.VN) bool { return true },
		func(vn pipes.VN) *netstack.Host { return em.NewHost(vn) },
		func(vn pipes.VN) *vtime.Scheduler { return em.SchedulerOf(vn) })
	if err != nil {
		t.Fatal(err)
	}
	em.RunFor(modelnet.Seconds(testRunFor))
	sort.Float64s(deliveries)
	return em.Totals(), deliveries
}

func runFederated(t *testing.T, cores int, plane string) (modelnet.Totals, []float64, *fednet.Report) {
	t.Helper()
	rep, err := fednet.Run(fednet.Options{
		Scenario:          "fednet-test-ring",
		Params:            testParams,
		Cores:             cores,
		Seed:              7,
		Profile:           idealPtr(),
		RunFor:            modelnet.Seconds(testRunFor),
		DataPlane:         plane,
		Spawn:             true,
		CollectDeliveries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := append([]float64(nil), rep.Deliveries...)
	sort.Float64s(ds)
	return rep.Totals, ds, rep
}

func idealPtr() *modelnet.Profile {
	p := modelnet.IdealProfile()
	return &p
}

func sameRun(t *testing.T, name string, at modelnet.Totals, ad []float64, bt modelnet.Totals, bd []float64) {
	t.Helper()
	if at != bt {
		t.Errorf("%s: totals diverge:\n a %+v\n b %+v", name, at, bt)
	}
	if len(ad) != len(bd) {
		t.Fatalf("%s: delivery counts diverge: %d vs %d", name, len(ad), len(bd))
	}
	for i := range ad {
		if ad[i] != bd[i] {
			t.Fatalf("%s: delivery time %d diverges: %v vs %v", name, i, ad[i], bd[i])
		}
	}
}

func TestFederatedMatchesLocalModes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	seqT, seqD := runLocal(t, 1, false)
	parT, parD := runLocal(t, 2, true)
	fedT, fedD, rep := runFederated(t, 2, fednet.DataUDP)

	if seqT.Delivered == 0 {
		t.Fatal("no traffic delivered")
	}
	sameRun(t, "seq vs inproc-par", seqT, seqD, parT, parD)
	sameRun(t, "seq vs federated", seqT, seqD, fedT, fedD)
	if rep.Sync.Messages == 0 {
		t.Error("federated run exchanged no cross-core messages — partition degenerate, test is vacuous")
	}
	if rep.Sync.Windows == 0 {
		t.Error("federated run executed no windows")
	}
	// Batching is the default: a window's messages coalesce per peer, so
	// the data plane writes strictly fewer frames than messages.
	if rep.Frames == 0 || rep.Frames >= rep.Sync.Messages {
		t.Errorf("batched plane wrote %d frames for %d messages", rep.Frames, rep.Sync.Messages)
	}
	if rep.BytesOnWire == 0 {
		t.Error("no bytes accounted on the wire")
	}
	for i, w := range rep.Workers {
		if w.Totals.Injected == 0 {
			t.Errorf("shard %d injected nothing — VNs not spread across shards", i)
		}
	}
}

func TestFederatedTCPDataPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	seqT, seqD := runLocal(t, 1, false)
	fedT, fedD, rep := runFederated(t, 2, fednet.DataTCP)
	sameRun(t, "seq vs federated-tcp", seqT, seqD, fedT, fedD)
	if rep.Sync.Messages == 0 {
		t.Error("federated run exchanged no cross-core messages")
	}
}

func TestFederatedThreeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	seqT, seqD := runLocal(t, 1, false)
	fedT, fedD, _ := runFederated(t, 3, fednet.DataUDP)
	sameRun(t, "seq vs federated-3", seqT, seqD, fedT, fedD)
}

func TestFederatedRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	// RunFor <= 0 runs to global quiescence (the Forever deadline): the
	// CBR flows stop themselves, so the federation must drain every
	// in-flight packet and come back with the same counters as a
	// deadline-bounded run.
	seqT, seqD := runLocal(t, 1, false)
	rep, err := fednet.Run(fednet.Options{
		Scenario:          "fednet-test-ring",
		Params:            testParams,
		Cores:             2,
		Seed:              7,
		Profile:           idealPtr(),
		RunFor:            0, // to completion
		DataPlane:         fednet.DataUDP,
		Spawn:             true,
		CollectDeliveries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := append([]float64(nil), rep.Deliveries...)
	sort.Float64s(ds)
	sameRun(t, "seq vs federated-to-completion", seqT, seqD, rep.Totals, ds)
	if rep.Totals.InFlight != 0 {
		t.Errorf("%d packets still in flight after run-to-completion", rep.Totals.InFlight)
	}
}

func TestFederatedRejectsUnknownScenario(t *testing.T) {
	_, err := fednet.Run(fednet.Options{Scenario: "no-such-scenario", Cores: 2})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if want := fmt.Sprintf("%q", "no-such-scenario"); err != nil && !contains(err.Error(), want) {
		t.Errorf("error %q does not name the scenario", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
