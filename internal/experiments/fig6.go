package experiments

import (
	"io"

	"modelnet"
	"modelnet/internal/edge"
	"modelnet/internal/netstack"
)

// Fig6 reproduces Figure 6 (§4.2): the accuracy cost of VN multiplexing.
// nprog netperf/netserver pairs share one physical source machine; each
// sender computes a configurable number of instructions per byte after
// each 1500-byte UDP packet, and each pair's emulated pipe gets 1/nprog of
// the 100 Mb/s physical link. Aggregate delivered throughput stays at
// ~95 Mb/s until per-packet computation exceeds the machine's budget;
// the break-even point slides from 76 instructions/byte at nprog=1 to 65
// at nprog=100 as context-switch/cache overhead grows.

// Fig6Config parameterizes the sweep.
type Fig6Config struct {
	Nprogs    []int
	InstrPerB []float64
	Payload   int
	Duration  modelnet.Duration
	Machine   edge.MachineConfig
	Seed      int64
}

// DefaultFig6 is the paper's sweep.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Nprogs:    []int{1, 4, 8, 16, 32, 60, 80, 100},
		InstrPerB: []float64{50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100},
		Payload:   1500,
		Duration:  modelnet.Seconds(2),
		Machine:   edge.DefaultMachineConfig(),
		Seed:      4,
	}
}

// Fig6Row is one measured point.
type Fig6Row struct {
	Nprog     int
	InstrPerB float64
	AggKbitps float64 // aggregate delivered payload throughput
}

// RunFig6 executes the sweep.
func RunFig6(cfg Fig6Config) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, nprog := range cfg.Nprogs {
		for _, ipb := range cfg.InstrPerB {
			row, err := runFig6Point(cfg, nprog, ipb)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runFig6Point(cfg Fig6Config, nprog int, instrPerByte float64) (Fig6Row, error) {
	// Each pair's pipe carries 1/nprog of the 100 Mb/s link.
	attr := modelnet.LinkAttrs{
		BandwidthBps: cfg.Machine.LinkBps / float64(nprog),
		LatencySec:   modelnet.Ms(1),
		QueuePkts:    10,
	}
	g := modelnet.Pairs(nprog, 1, attr)
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(g, modelnet.Options{RouteCache: nprog * 8, Profile: &ideal, Seed: cfg.Seed})
	if err != nil {
		return Fig6Row{}, err
	}
	// All senders share one physical machine; receivers are unconstrained
	// (the sink machine mirrors the source symmetrically in the paper's
	// setup and is never the bottleneck).
	machine := edge.NewMachine(em.Sched, cfg.Machine)
	inj := machine.WrapInjector(em.Emu)

	received := 0
	for i := 0; i < nprog; i++ {
		machine.AddProcess()
		src := em.NewHostVia(modelnet.VN(2*i), inj)
		dst := em.NewHost(modelnet.VN(2*i + 1))
		if _, err := dst.OpenUDP(9, func(from netstack.Endpoint, dg *netstack.Datagram) {
			received += dg.Len
		}); err != nil {
			return Fig6Row{}, err
		}
		sock, err := src.OpenUDP(0, nil)
		if err != nil {
			return Fig6Row{}, err
		}
		to := netstack.Endpoint{VN: dst.VN(), Port: 9}
		// The netperf loop: compute instrPerByte×payload instructions,
		// send, repeat. Machine.Exec serializes all processes on the one
		// CPU; WrapInjector charges the kernel send path and the NIC.
		var loop func()
		loop = func() {
			machine.Exec(instrPerByte*float64(cfg.Payload), func() {
				sock.SendTo(to, cfg.Payload, nil)
				loop()
			})
		}
		loop()
	}
	em.RunFor(cfg.Duration)
	agg := float64(received*8) / cfg.Duration.Seconds() / 1e3 // kbit/s
	return Fig6Row{Nprog: nprog, InstrPerB: instrPerByte, AggKbitps: agg}, nil
}

// PrintFig6 renders the rows.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fprintf(w, "Figure 6: aggregate throughput vs per-byte computation under multiplexing\n")
	fprintf(w, "%6s %12s %14s\n", "nprog", "instr/byte", "kbit/s")
	for _, r := range rows {
		fprintf(w, "%6d %12.0f %14.0f\n", r.Nprog, r.InstrPerB, r.AggKbitps)
	}
}
