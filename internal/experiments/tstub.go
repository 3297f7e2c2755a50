package experiments

// tstub-cbr: the sharded-distribution scale workload. A GT-ITM-style
// transit-stub topology (topology.TransitStub) carries CBR flows from a
// deterministic subsample of client VNs to a small set of sink VNs spread
// across the stubs. Two properties make it the scaling yardstick:
//
//   - The population is a generator parameter: 10⁵–10⁶ VNs are a config
//     away, with link count linear in VNs — exactly the regime where the
//     monolithic O(world) setup and O(n²) route matrix stop fitting and the
//     sharded distribution (per-shard views + demand-paged routes) is the
//     only path.
//   - The distinct route targets are bounded by Servers regardless of
//     population, so each worker's demand-paged distance-field cache stays
//     small and the route-RPC count measures paging, not thrash.

import (
	"math/rand"

	"modelnet"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/vtime"
)

// ScenarioTStubCBR is the registered federation scenario name.
const ScenarioTStubCBR = "tstub-cbr"

// TStubCBRSpec parameterizes the transit-stub CBR workload,
// mode-independently. It doubles as the federation scenario's JSON params.
type TStubCBRSpec struct {
	TransitDomains   int `json:"transit_domains"`
	TransitPerDomain int `json:"transit_per_domain"`
	StubsPerTransit  int `json:"stubs_per_transit"`
	RoutersPerStub   int `json:"routers_per_stub"`
	ClientsPerStub   int `json:"clients_per_stub"`

	// Servers is the number of sink VNs (clients hash onto them); it bounds
	// the distinct route targets and so each shard's distance-field cache.
	Servers int `json:"servers"`
	// Flows is the number of sending VNs, spread evenly over the population —
	// traffic volume stays a workload knob while the world scales.
	Flows         int     `json:"flows"`
	PacketsPerSec float64 `json:"packets_per_sec"` // per-flow CBR rate
	PacketBytes   int     `json:"packet_bytes"`
	DurationSec   float64 `json:"duration_sec"` // injection window
	Seed          int64   `json:"seed"`
}

// RunFor is the virtual time a run of this spec must cover (the ring-cbr
// drain rule: injection stops early enough for in-flight traffic to finish).
func (c TStubCBRSpec) RunFor() modelnet.Duration {
	return modelnet.Seconds(c.DurationSec + ringCBRDrainSec)
}

// Topology builds the transit-stub graph with era-typical attributes
// (§5.2/§5.3 scale studies: 155 Mb/s transit core, 45 Mb/s transit-stub
// uplinks, 10 Mb/s client access links).
func (c TStubCBRSpec) Topology() *modelnet.Graph {
	return topology.TransitStub(topology.TransitStubConfig{
		TransitDomains:   c.TransitDomains,
		TransitPerDomain: c.TransitPerDomain,
		StubsPerTransit:  c.StubsPerTransit,
		RoutersPerStub:   c.RoutersPerStub,
		ClientsPerStub:   c.ClientsPerStub,
		TransitTransit:   topology.LinkAttrs{BandwidthBps: topology.Mbps(155), LatencySec: topology.Ms(20), QueuePkts: 200},
		TransitStub:      topology.LinkAttrs{BandwidthBps: topology.Mbps(45), LatencySec: topology.Ms(10), QueuePkts: 100},
		StubStub:         topology.LinkAttrs{BandwidthBps: topology.Mbps(100), LatencySec: topology.Ms(2), QueuePkts: 100},
		ClientStub:       topology.LinkAttrs{BandwidthBps: topology.Mbps(10), LatencySec: topology.Ms(1), QueuePkts: 100},
		Seed:             c.Seed,
	})
}

// plan derives the sink and sender VN sets — identically on every process.
// Sinks sit at even strides through the population (so they land in many
// different stub domains and shards); senders at their own stride, skipping
// any collision with a sink.
func (c TStubCBRSpec) plan(n int) (servers []int, senders []int) {
	isServer := make(map[int]bool, c.Servers)
	sstride := n / c.Servers
	if sstride < 1 {
		sstride = 1
	}
	for i := 0; i < c.Servers && i*sstride < n; i++ {
		servers = append(servers, i*sstride)
		isServer[i*sstride] = true
	}
	fstride := n / c.Flows
	if fstride < 1 {
		fstride = 1
	}
	for k := 0; k < c.Flows && len(senders) < n-len(servers); k++ {
		v := (k * fstride) % n
		for isServer[v] {
			v = (v + 1) % n
		}
		senders = append(senders, v)
	}
	return servers, senders
}

// Install sets up the homed slice of the workload: a sink on port 9 at every
// homed server VN, and a jittered CBR flow from every homed sender to its
// hashed server. Jitter is drawn for the whole sender population in plan
// order, so any subset installs values identical to a full install.
func (c TStubCBRSpec) Install(n int, homed func(pipes.VN) bool,
	host func(pipes.VN) *netstack.Host, sched func(pipes.VN) *vtime.Scheduler) error {
	servers, senders := c.plan(n)
	for _, s := range servers {
		vn := pipes.VN(s)
		if !homed(vn) {
			continue
		}
		if _, err := host(vn).OpenUDP(9, nil); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(c.Seed))
	period := vtime.DurationOf(1 / c.PacketsPerSec)
	starts := make([]vtime.Duration, len(senders))
	jitters := make([]vtime.Duration, len(senders))
	for k := range senders {
		starts[k] = vtime.Duration(rng.Int63n(int64(period)))
		jitters[k] = vtime.Duration(rng.Int63n(int64(period / 8)))
	}
	sendEnd := vtime.Time(0).Add(vtime.DurationOf(c.DurationSec))
	flows := make([]cbrFlow, len(senders))
	for k, v := range senders {
		vn := pipes.VN(v)
		if !homed(vn) {
			continue
		}
		s, err := host(vn).OpenUDP(0, nil)
		if err != nil {
			return err
		}
		flows[k] = cbrFlow{sock: s, dst: modelnet.Endpoint{VN: modelnet.VN(servers[k%len(servers)]), Port: 9},
			size: c.PacketBytes, sched: sched(vn), vn: int32(vn), every: period + jitters[k], end: sendEnd}
		flows[k].start(starts[k])
	}
	return nil
}
