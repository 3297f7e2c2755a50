// Package emucore implements the ModelNet core (§2.2–§3.3): one or more
// emulated core routers that move packet descriptors through the pipe
// network of a distilled topology under a tick-quantized scheduler, with
// explicit CPU and NIC capacity models so that overload produces physical
// drops at the (modeled) network interface rather than emulation error —
// exactly the paper's design point ("core CPU saturation results in dropped
// packets rather than inaccurate emulation").
//
// The paper's core is a FreeBSD kernel module driven by a 10 kHz hardware
// timer. Here the whole system runs in virtual time, so the tick is a model
// parameter: per-hop delivery error is bounded by one tick by construction,
// deterministically, rather than as a best-effort property of kernel
// priorities.
package emucore

import "modelnet/internal/vtime"

// CPUCosts model the per-packet processing cost on a core. The paper
// measures a fixed per-packet overhead (IP stack + interrupt handling) plus
// a per-emulated-hop cost (§3.2). Tunnel costs apply when a packet crosses
// between cores in a multi-core emulation (§3.3).
type CPUCosts struct {
	PerPacket vtime.Duration // NIC rx + IP stack + route lookup, per packet entering a core
	PerHop    vtime.Duration // heap + queue work per emulated hop
	TunnelTx  vtime.Duration // encapsulating and sending a descriptor to a peer core
	TunnelRx  vtime.Duration // receiving and dispatching a tunneled descriptor
}

// Profile is the hardware/behaviour model of the core cluster.
type Profile struct {
	// Tick is the scheduler quantum (hardware timer granularity). The
	// paper's prototype runs at 10 kHz = 100 µs. Zero means event-exact
	// scheduling (no quantization).
	Tick vtime.Duration

	// CPU holds per-packet costs; the zero value means an infinitely fast
	// CPU. CPUBacklog bounds how far emulation work may run ahead of the
	// clock before ingress packets are physically dropped — it models the
	// NIC receive ring that overflows while the (higher-priority)
	// emulation starves interrupt handling.
	CPU        CPUCosts
	CPUBacklog vtime.Duration

	// NICBps is each core's link rate in bits/s per direction (full
	// duplex); 0 = infinite. NICBacklog bounds NIC queueing before
	// physical drops.
	NICBps     float64
	NICBacklog vtime.Duration

	// DescriptorBytes is the on-wire size of a tunneled descriptor when
	// PayloadCaching is enabled (§2.2: "leaving the packet contents
	// buffered on the entry core node"). When PayloadCaching is false the
	// full packet is tunneled.
	PayloadCaching  bool
	DescriptorBytes int

	// DebtHandling enables the paper's (in-progress, §3.1) packet-debt
	// optimization: the scheduler tracks accumulated quantization error
	// and corrects it at subsequent hops, bounding end-to-end error by
	// one tick instead of one tick per hop.
	DebtHandling bool
}

// DefaultTick is the paper's 10 kHz scheduler granularity.
const DefaultTick = 100 * vtime.Microsecond

// DefaultProfile models the paper's testbed: 1.4 GHz PIII core with a
// gigabit NIC. The CPU constants are calibrated (see DESIGN.md) so that the
// Fig. 4 crossovers reproduce: 1–4 hop flows saturate the NIC at
// ~120 Kpkt/s, 8-hop flows saturate the CPU at ~90 Kpkt/s.
func DefaultProfile() Profile {
	return Profile{
		Tick: DefaultTick,
		CPU: CPUCosts{
			PerPacket: 4000 * vtime.Nanosecond,  // 4.0 µs
			PerHop:    900 * vtime.Nanosecond,   // 0.9 µs
			TunnelTx:  8000 * vtime.Nanosecond,  // calibrated to Table 1:
			TunnelRx:  12000 * vtime.Nanosecond, // ~3× degradation at 100% crossing
		},
		// Interrupt work the CPU can defer before the RX ring overruns:
		// a few ticks' worth. Larger values create drop epochs that
		// synchronize TCP timeouts (an artifact, not a behaviour).
		CPUBacklog: 500 * vtime.Microsecond,
		NICBps:     1e9,
		NICBacklog: 6 * vtime.Millisecond, // ≈750 1KB slots: a 2002 GbE ring

		DescriptorBytes: 96,
	}
}

// IdealProfile is the event-exact, infinitely-provisioned reference: the
// same engine behaves as a conventional packet-level simulator (the role
// ns-2 plays in the paper's Fig. 5 cross-validation).
func IdealProfile() Profile {
	return Profile{Tick: 0}
}

func (p Profile) ideal() bool { return p.Tick == 0 && p.CPU == CPUCosts{} && p.NICBps == 0 }

func (p *Profile) cpuBacklog() vtime.Duration {
	if p.CPUBacklog <= 0 {
		return 2 * vtime.Millisecond
	}
	return p.CPUBacklog
}

func (p *Profile) nicBacklog() vtime.Duration {
	if p.NICBacklog <= 0 {
		return 2 * vtime.Millisecond
	}
	return p.NICBacklog
}
