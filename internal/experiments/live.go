package experiments

// The live-ring scenario: the workload half of the live edge story. It
// builds the usual router ring and installs a single in-emulation service —
// a UDP echo responder — plus (optionally) background CBR load, and nothing
// else: the interesting traffic comes from outside, through a worker's edge
// gateway (internal/edge), injected by real processes over real sockets. An
// external client pinging the echo VN through the gateway observes the
// ring's configured latency (two access links plus the ring path, twice)
// and loss, which is the paper's unmodified-application claim end to end.

import (
	"modelnet"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// ScenarioLiveRing is the registered name of the live edge workload.
const ScenarioLiveRing = "live-ring"

// LiveRingSpec parameterizes the live-ring scenario.
type LiveRingSpec struct {
	Routers      int `json:"routers"`
	VNsPerRouter int `json:"vns_per_router"`
	// EchoVN/EchoPort place the in-emulation UDP echo responder external
	// clients ping through the gateway.
	EchoVN   int    `json:"echo_vn"`
	EchoPort uint16 `json:"echo_port"`
	// RingLossPct drops packets on the router-to-router links, so an
	// external client can measure emulated loss as well as latency.
	RingLossPct float64 `json:"ring_loss_pct,omitempty"`
	// BackgroundPPS, when positive, adds a light CBR flow per VN (as in
	// ring-cbr) so the live traffic contends with synthetic load.
	BackgroundPPS   float64 `json:"background_pps,omitempty"`
	BackgroundBytes int     `json:"background_bytes,omitempty"`
	DurationSec     float64 `json:"duration_sec"`
	Seed            int64   `json:"seed"`
}

// RunFor is the virtual time a run of this spec must cover. Live runs pace
// virtual time against the wall clock, so this is also the wall-clock
// duration external clients have.
func (c LiveRingSpec) RunFor() modelnet.Duration { return modelnet.Seconds(c.DurationSec) }

// OneWay is the modeled one-way latency from VN 0's access link to the
// echo VN, assuming diametric placement: two 1 ms access links plus
// Routers/2 ring hops of 5 ms. External clients use it as the lower bound
// a measured round trip must respect.
func (c LiveRingSpec) OneWay() vtime.Duration {
	return 2*vtime.Millisecond + vtime.Duration(c.Routers/2)*5*vtime.Millisecond
}

// Topology builds the ring: 100 Mb/s, 5 ms ring links (optionally lossy)
// and 10 Mb/s, 1 ms access links.
func (c LiveRingSpec) Topology() *modelnet.Graph {
	ringAttr := modelnet.LinkAttrs{
		BandwidthBps: modelnet.Mbps(100), LatencySec: modelnet.Ms(5),
		QueuePkts: 200, LossRate: c.RingLossPct / 100,
	}
	accessAttr := modelnet.LinkAttrs{BandwidthBps: modelnet.Mbps(10), LatencySec: modelnet.Ms(1), QueuePkts: 100}
	return modelnet.Ring(c.Routers, c.VNsPerRouter, ringAttr, accessAttr)
}

// LiveRingReport is the scenario's measurement: what the in-emulation echo
// responder saw (the external client keeps its own books).
type LiveRingReport struct {
	Echoed uint64 `json:"echoed"`
}

// Merge folds another process's report in.
func (r *LiveRingReport) Merge(o LiveRingReport) { r.Echoed += o.Echoed }

// Install builds the homed slice: the echo responder on EchoVN and any
// background CBR flows.
func (c LiveRingSpec) Install(e Env) (func() LiveRingReport, error) {
	rep := &LiveRingReport{}
	if vn := pipes.VN(c.EchoVN); e.Homed(vn) {
		h := e.NewHost(vn)
		var sock *netstack.UDPSocket
		var err error
		sock, err = h.OpenUDP(c.EchoPort, func(from netstack.Endpoint, dg *netstack.Datagram) {
			rep.Echoed++
			if dg.Data != nil {
				sock.SendBytes(from, dg.Data)
			} else {
				sock.SendTo(from, dg.Len, nil)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if c.BackgroundPPS > 0 {
		bytes := c.BackgroundBytes
		if bytes <= 0 {
			bytes = 500
		}
		bg := RingCBRSpec{
			Routers: c.Routers, VNsPerRouter: c.VNsPerRouter,
			PacketsPerSec: c.BackgroundPPS, PacketBytes: bytes,
			DurationSec: c.DurationSec, Seed: c.Seed,
		}
		// Reuse ring-cbr's install; the echo port (EchoPort) and the CBR
		// sink port (9) must differ, which OpenUDP enforces loudly.
		if err := bg.Install(e.NumVNs, e.Homed, e.NewHost, e.SchedOf); err != nil {
			return nil, err
		}
	}
	return func() LiveRingReport { return *rep }, nil
}
