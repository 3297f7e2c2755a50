package edge

// The edge-machine model: structural where it matters (a single serialized
// CPU, a serialized NIC with a bounded backlog) and calibrated where the
// paper only gives end-to-end measurements — the efficiency factor eff(n)
// captures the context-switch and cache degradation the paper measures as
// the 76→65 instructions/byte break-even slide between nprog=1 and
// nprog=100 (Fig. 6); see DESIGN.md.

import (
	"math"

	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/vtime"
)

// MachineConfig describes one physical edge node.
type MachineConfig struct {
	CPUHz   float64 // instructions per second (CPI 1.0), e.g. 1e9
	LinkBps float64 // host NIC rate; 0 = unlimited
	// KernelPerPacket is the kernel instruction cost of one send/receive
	// (syscall, UDP/IP stack, driver).
	KernelPerPacket float64
	// Efficiency-loss coefficients (see eff): Base applies always,
	// Share scales with (1-1/n), Log with ln(n).
	OverheadBase, OverheadShare, OverheadLog float64
	// NICBacklog bounds send queueing before drops (default 10 ms).
	NICBacklog vtime.Duration
}

// DefaultMachineConfig models the paper's 1 GHz PIII edge nodes with
// 100 Mb/s Ethernet. The overhead coefficients are fitted to Fig. 6's
// break-even points (76/73/65 instructions per byte at nprog=1/2/100).
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{
		CPUHz:           1e9,
		LinkBps:         100e6,
		KernelPerPacket: 6000,
		OverheadBase:    0.0188,
		OverheadShare:   0.0432,
		OverheadLog:     0.0260,
		NICBacklog:      10 * vtime.Millisecond,
	}
}

// Machine is one edge node: a serialized CPU shared by its processes and a
// serialized NIC.
type Machine struct {
	cfg   MachineConfig
	sched *vtime.Scheduler

	nprocs       int
	cpuBusy      vtime.Time
	nicBusy      vtime.Time
	CPUWork      vtime.Duration
	NICDrops     uint64
	PktsInjected uint64
}

// NewMachine creates an edge machine.
func NewMachine(sched *vtime.Scheduler, cfg MachineConfig) *Machine {
	return &Machine{cfg: cfg, sched: sched}
}

// AddProcess registers one hosted process (VN); the multiplexing degree
// feeds the efficiency model.
func (m *Machine) AddProcess() { m.nprocs++ }

// eff is the CPU efficiency under multiplexing degree n.
func (m *Machine) eff() float64 {
	n := float64(m.nprocs)
	if n < 1 {
		n = 1
	}
	den := 1 + m.cfg.OverheadBase + m.cfg.OverheadShare*(1-1/n) + m.cfg.OverheadLog*math.Log(n)
	return 1 / den
}

// Exec schedules fn to run after the CPU has executed instr instructions
// for the calling process, serialized FIFO against all other work on the
// machine. This is how hosted senders model per-packet computation.
func (m *Machine) Exec(instr float64, fn func()) {
	now := m.sched.Now()
	start := now
	if m.cpuBusy > start {
		start = m.cpuBusy
	}
	d := vtime.DurationOf(instr / (m.cfg.CPUHz * m.eff()))
	m.cpuBusy = start.Add(d)
	m.CPUWork += d
	m.sched.At(m.cpuBusy, fn)
}

// WrapInjector returns an Injector that charges the machine's kernel CPU
// cost and NIC serialization before handing packets to inner (the
// emulator). Packets are delayed by NIC occupancy and dropped when the
// send queue exceeds the backlog bound.
func (m *Machine) WrapInjector(inner netstack.Injector) netstack.Injector {
	return &machineInjector{m: m, inner: inner}
}

type machineInjector struct {
	m     *Machine
	inner netstack.Injector
}

func (mi *machineInjector) Inject(src, dst pipes.VN, size int, payload any) bool {
	m := mi.m
	now := m.sched.Now()
	// Kernel send path on the shared CPU.
	kd := vtime.DurationOf(m.cfg.KernelPerPacket / (m.cfg.CPUHz * m.eff()))
	start := now
	if m.cpuBusy > start {
		start = m.cpuBusy
	}
	m.cpuBusy = start.Add(kd)
	m.CPUWork += kd

	// NIC serialization. The backlog bound measures time spent queued for
	// the NIC after the kernel hands the packet over (txStart - when) —
	// not elapsed CPU-queue time, which is accuracy-neutral compute
	// scheduling, not a full transmit ring.
	when := m.cpuBusy
	if m.cfg.LinkBps > 0 {
		txStart := when
		if m.nicBusy > txStart {
			txStart = m.nicBusy
		}
		backlog := m.cfg.NICBacklog
		if backlog <= 0 {
			backlog = 10 * vtime.Millisecond
		}
		if txStart.Sub(when) > backlog {
			m.NICDrops++
			return false
		}
		m.nicBusy = txStart.Add(vtime.DurationOf(float64(size*8) / m.cfg.LinkBps))
		when = m.nicBusy
	}
	m.PktsInjected++
	if when <= now {
		return mi.inner.Inject(src, dst, size, payload)
	}
	m.sched.At(when, func() { mi.inner.Inject(src, dst, size, payload) })
	return true
}
