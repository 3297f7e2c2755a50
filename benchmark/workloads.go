package main

// The six workloads of the ledger. Each is a fixed virtual duration run as
// fast as possible; the topology never changes with -scale, only the
// virtual duration (and, for cfs, the file that fills it).

import (
	"fmt"
	"math/rand"

	"modelnet"
	"modelnet/internal/experiments"
	"modelnet/internal/fednet"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/traffic"
)

// Execution modes.
const (
	modeSeq    = "seq"
	modeInproc = "inproc"
	modeFed    = "fed"
)

// shards is the core count of every parallel and federated workload: the
// reference host has two vCPUs, and load is sized to nproc.
const shards = 2

// workload is one row of the ledger.
type workload struct {
	name string
	why  string
	mode string
	// plane is the data plane of a federated workload.
	plane string
	// transport ("udp", "tcp" or "rpc") and table (a bind.*_ns probe name)
	// pick the probes that price one packet and one route lookup of this
	// workload in the share.* estimate; hardware picks the DefaultProfile
	// hop probe over the ideal one.
	transport string
	table     string
	hardware  bool
	// slice is the virtual time of one timed RunFor of a sequential
	// workload: a few thousand hops, 2-3 ms of wall, short enough that many
	// slices pass without the host taking the CPU away. Zero runs the timed
	// phase in one piece: the parallel workloads, because every RunFor ends in
	// a barrier and slices shorter than a natural window (6 ms on the ring)
	// would change the very synchronization they measure.
	slice modelnet.Duration
	// gated workloads are the ones BENCHMARK.json lists: their metrics repeat
	// within the bounds on a shared host. The parallel ones do not (a stalled
	// vCPU stalls every barrier) and are for the full ledger only.
	gated    bool
	scenario func(seed int64, scale float64) scenario
}

// scenario is one workload's generated input: the in-process form every
// workload has (federated ones use it, sequentially, as the hop and digest
// oracle) and the registered federation form where one exists.
type scenario struct {
	topo   func() *modelnet.Graph
	runFor modelnet.Duration
	// opts are the in-process options apart from Cores/Parallel/Seed/Trace.
	opts modelnet.Options
	// install starts the applications; the returned function, when non-nil,
	// yields the scenario's app report after the run.
	install func(em *modelnet.Emulation) (func() any, error)

	fedName   string
	fedParams any
	fedApp    func(*fednet.Report) (any, error)
}

var workloads = []workload{
	{
		name: "ring-seq", mode: modeSeq, transport: "udp", table: "bind.matrix_lookup_ns",
		slice: modelnet.Seconds(0.002), gated: true,
		why:      "400-VN CBR ring, 12 hops per packet, sequential: emucore hop + pipes + vtime do nearly all the work",
		scenario: ringScenario,
	},
	{
		name: "ring-inproc2", mode: modeInproc, transport: "udp", table: "bind.matrix_lookup_ns",
		why:      "same ring on 2 in-process shards: the delta to ring-seq is parcore (outbox, applier, bounds, barrier)",
		scenario: ringScenario,
	},
	{
		name: "ring-fed2", mode: modeFed, plane: fednet.DataUDP, transport: "udp", table: "bind.shardtable_lookup_ns",
		why:      "same ring on 2 worker processes over loopback UDP: adds the fednet worker loop, wire batch codec and sockets",
		scenario: ringScenario,
	},
	{
		name: "fig4-tcp-seq", mode: modeSeq, transport: "tcp", table: "bind.cache_hit_ns", hardware: true,
		slice: modelnet.Seconds(0.02), gated: true,
		why:      "the paper's Fig. 4 point, 120 one-hop TCP flows under the hardware profile: netstack TCP, quantized core, dropping pipes",
		scenario: fig4Scenario,
	},
	{
		name: "cfs-fed2", mode: modeFed, plane: fednet.DataTCP, transport: "rpc", table: "bind.shardtable_lookup_ns",
		why:      "sparse RTT-bound CFS downloads on 2 workers over loopback TCP: barrier round trips are the wall, hop cost is noise",
		scenario: cfsScenario,
	},
	{
		name: "tstub-fed2", mode: modeFed, plane: fednet.DataUDP, transport: "udp", table: "bind.shardtable_lookup_ns",
		why:      "100k-VN transit-stub world on 2 workers with an idle data path: setup, memory and route paging dominate",
		scenario: tstubScenario,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func allHomed(pipes.VN) bool { return true }

// ringScenario is the flagship: RingCBRSpec{20 routers x 20 VNs, 200 pps,
// 1000 B} under the ideal profile, zero drops by construction. The seed
// drives every flow's phase and rate jitter.
func ringScenario(seed int64, scale float64) scenario {
	spec := experiments.RingCBRSpec{
		Routers: 20, VNsPerRouter: 20, PacketsPerSec: 200, PacketBytes: 1000,
		DurationSec: 2 * scale, Seed: seed,
	}
	ideal := modelnet.IdealProfile()
	return scenario{
		topo:   spec.Topology,
		runFor: spec.RunFor(),
		opts:   modelnet.Options{Profile: &ideal},
		install: func(em *modelnet.Emulation) (func() any, error) {
			return nil, spec.Install(em.NumVNs(), allHomed, em.NewHost, em.SchedulerOf)
		},
		fedName: experiments.ScenarioRingCBR, fedParams: spec,
	}
}

// fig4Report is the fig4 workload's app report.
type fig4Report struct {
	SinkBytes   uint64 `json:"sink_bytes"`
	Segments    uint64 `json:"segments"`
	Retransmits uint64 `json:"retransmits"`
}

// fig4Scenario is experiments.runFig4Point at (120 flows, 1 hop) without the
// warm-up split: bulk TCP over private 10 Mb/s pipes with 20-packet queues,
// DefaultProfile, route cache. The seed draws each flow's start inside the
// first 200 ms (the stagger the experiment applies evenly).
func fig4Scenario(seed int64, scale float64) scenario {
	const flows = 120
	attr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(10), QueuePkts: 20}
	return scenario{
		topo:   func() *modelnet.Graph { return modelnet.Pairs(flows, 1, attr) },
		runFor: modelnet.Seconds(16 * scale),
		opts:   modelnet.Options{RouteCache: flows * 8},
		install: func(em *modelnet.Emulation) (func() any, error) {
			rng := rand.New(rand.NewSource(seed))
			var sinks []*traffic.Sink
			var senders []*modelnet.Host
			bulks := make([]*traffic.Bulk, flows)
			for i := 0; i < flows; i++ {
				src := em.NewHost(modelnet.VN(2 * i))
				dst := em.NewHost(modelnet.VN(2*i + 1))
				sink, err := traffic.NewSink(dst, 80)
				if err != nil {
					return nil, err
				}
				sinks = append(sinks, sink)
				senders = append(senders, src)
				i, to := i, netstack.Endpoint{VN: dst.VN(), Port: 80}
				start := modelnet.Time(rng.Int63n(int64(modelnet.Seconds(0.2))))
				em.SchedulerOf(src.VN()).At(start, func() {
					bulks[i] = traffic.StartBulk(src, to, traffic.Unbounded)
				})
			}
			return func() any {
				var r fig4Report
				for i := range sinks {
					r.SinkBytes += sinks[i].TotalBytes
					r.Segments += senders[i].PktsOut
					if bulks[i] != nil {
						r.Retransmits += bulks[i].Conn.Retransmits
					}
				}
				return r
			}, nil
		},
	}
}

// cfsScenario is CFSRingSpec{8x4} with four seed-chosen downloaders fetching
// a striped file through a 24 KB prefetch window: Chord lookups and block
// fetches over UDP RPC, few events per synchronization window.
func cfsScenario(seed int64, scale float64) scenario {
	spec := experiments.CFSRingSpec{
		Routers: 8, VNsPerRouter: 4, WindowKB: 24,
		FileKB:      max(64, int(16384*scale)),
		DurationSec: 10 + 50*scale,
		Seed:        seed,
	}
	spec.Downloaders = []int{0, 9, 17, 25}
	ideal := modelnet.IdealProfile()
	return scenario{
		topo:   spec.Topology,
		runFor: spec.RunFor(),
		opts:   modelnet.Options{Profile: &ideal},
		install: func(em *modelnet.Emulation) (func() any, error) {
			report, err := spec.Install(em.NumVNs(), allHomed, em.NewHost)
			if err != nil {
				return nil, err
			}
			return func() any { return report() }, nil
		},
		fedName: experiments.ScenarioCFSRing, fedParams: spec,
		fedApp: func(rep *fednet.Report) (any, error) { return experiments.CFSFederatedReport(rep) },
	}
}

// tstubScenario is the tstub-cbr-100k configuration of the fednet study:
// 10·10·10·100 = 100 000 VNs, 128 CBR flows onto 32 sinks. The seed drives
// both the generated topology and the flows' jitter.
func tstubScenario(seed int64, scale float64) scenario {
	spec := experiments.TStubCBRSpec{
		TransitDomains: 10, TransitPerDomain: 10, StubsPerTransit: 10,
		RoutersPerStub: 4, ClientsPerStub: 100,
		Servers: 32, Flows: 128, PacketsPerSec: 20, PacketBytes: 512,
		DurationSec: 2 * scale, Seed: seed,
	}
	ideal := modelnet.IdealProfile()
	return scenario{
		topo:   spec.Topology,
		runFor: spec.RunFor(),
		// The O(n²) matrix cannot hold 10⁵ VNs; 32 sinks bound the distinct
		// targets, so a cache this size never evicts in the oracle run.
		opts: modelnet.Options{Profile: &ideal, RouteCache: 4096},
		install: func(em *modelnet.Emulation) (func() any, error) {
			return nil, spec.Install(em.NumVNs(), allHomed, em.NewHost, em.SchedulerOf)
		},
		fedName: experiments.ScenarioTStubCBR, fedParams: spec,
	}
}
