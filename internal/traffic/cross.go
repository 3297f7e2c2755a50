package traffic

import (
	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// Cross traffic by pipe re-parameterization (§4.3): instead of generating
// real background packets (which costs edge and core resources), the user
// specifies a bandwidth-demand matrix between VN pairs; an offline pass
// propagates the demands through the routing matrix onto each pipe, and
// the emulation periodically installs derived pipe settings: reduced
// bandwidth (higher utilization), increased latency (queueing delay from a
// simple analytical model), and a smaller queue bound (less burst
// headroom). Synthetic flows are not congestion-responsive; the error grows
// with utilization — both caveats straight from the paper.

// Demand is one synthetic background flow.
type Demand struct {
	Src, Dst pipes.VN
	Bps      float64
}

// PipeLoads propagates a demand matrix through the routing matrix,
// returning offered background load per pipe in bits/s.
func PipeLoads(m *bind.Matrix, demands []Demand) map[pipes.ID]float64 {
	loads := make(map[pipes.ID]float64)
	for _, d := range demands {
		route, ok := m.Lookup(d.Src, d.Dst)
		if !ok {
			continue
		}
		for _, pid := range route {
			loads[pid] += d.Bps
		}
	}
	return loads
}

// CrossTraffic installs and clears derived pipe settings on an emulator.
type CrossTraffic struct {
	emu  *emucore.Emulator
	base []pipes.Params
	// AvgPktBytes is the packet size assumed by the queueing model
	// (default 1000, the paper's measured average).
	AvgPktBytes int
}

// NewCrossTraffic snapshots the emulator's current pipe parameters as the
// restore point.
func NewCrossTraffic(emu *emucore.Emulator) *CrossTraffic {
	ct := &CrossTraffic{emu: emu, AvgPktBytes: 1000}
	ct.base = make([]pipes.Params, emu.NumPipes())
	for i := range ct.base {
		ct.base[i] = emu.Pipe(pipes.ID(i)).Params()
	}
	return ct
}

// Apply derives and installs pipe settings for the given background loads.
// For a pipe with base bandwidth B carrying background X:
//
//	utilization ρ = X/B (capped at 0.95)
//	bandwidth' = B − X (the residual capacity)
//	latency'  = latency + ρ/(1−ρ) · avgPkt·8/B (M/M/1 waiting time)
//	queue'    = ⌈queue · (1−ρ)⌉ (steady-state occupancy shrinks headroom)
func (ct *CrossTraffic) Apply(loads map[pipes.ID]float64) {
	for pid, x := range loads {
		if int(pid) >= len(ct.base) || x <= 0 {
			continue
		}
		base := ct.base[pid]
		rho := x / base.BandwidthBps
		if rho > 0.95 {
			rho = 0.95
		}
		service := vtime.DurationOf(float64(ct.AvgPktBytes*8) / base.BandwidthBps)
		derived := base
		derived.BandwidthBps = base.BandwidthBps * (1 - rho)
		derived.Latency = base.Latency + vtime.Duration(rho/(1-rho)*float64(service))
		q := base.QueuePkts
		if q <= 0 {
			q = pipes.DefaultQueuePkts
		}
		q = int(float64(q) * (1 - rho))
		if q < 1 {
			q = 1
		}
		derived.QueuePkts = q
		ct.emu.SetPipeParams(pid, derived)
	}
}

// Clear restores every pipe to its snapshot parameters.
func (ct *CrossTraffic) Clear() {
	for i, p := range ct.base {
		ct.emu.SetPipeParams(pipes.ID(i), p)
	}
}
