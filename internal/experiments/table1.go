package experiments

import (
	"io"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/topology"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

// Table1 reproduces Table 1 (§3.3): maximum 4-core system throughput as a
// function of the fraction of flows whose packets must cross between
// cores. The paper: 462.5 Kpkt/s at 0% cross-core traffic (4× the
// single-core 2-hop result), degrading to 155.8 Kpkt/s at 100%.

// Table1Config parameterizes the experiment.
type Table1Config struct {
	Cores     int
	Pairs     int // sender/receiver pairs (paper: 560)
	CrossPcts []int
	Duration  vtime.Duration
	Warmup    vtime.Duration
	Seed      int64
}

// DefaultTable1 is the paper's configuration: 1120 VNs on a star of
// 10 Mb/s, 5 ms pipes (every path two hops), four cores.
func DefaultTable1() Table1Config {
	return Table1Config{
		Cores:     4,
		Pairs:     560,
		CrossPcts: []int{0, 25, 50, 75, 100},
		Duration:  vtime.Second,
		Warmup:    500 * vtime.Millisecond,
		Seed:      2,
	}
}

// Table1Row is one measured line.
type Table1Row struct {
	CrossPct    int
	Kpps        float64
	Tunnels     uint64
	TunnelBytes uint64 // bytes carried by inter-core tunnels
}

// RunTable1 executes the sweep.
func RunTable1(cfg Table1Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, pct := range cfg.CrossPcts {
		row, err := runTable1Point(cfg, pct, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runTable1Point measures one crossing fraction, optionally with the §2.2
// payload-caching optimization enabled.
func runTable1Point(cfg Table1Config, crossPct int, payloadCaching bool) (Table1Row, error) {
	nVNs := 2 * cfg.Pairs
	attr := topology.LinkAttrs{
		BandwidthBps: topology.Mbps(10),
		LatencySec:   topology.Ms(5),
		QueuePkts:    20,
	}
	g := topology.Star(nVNs, attr)
	b, err := bind.Bind(g, bind.Options{Cores: cfg.Cores})
	if err != nil {
		return Table1Row{}, err
	}
	// Pipe ownership follows VN grouping: VN v's access pipes belong to
	// core v mod Cores, matching the paper's "one quarter of the VNs to
	// each core". Star pipes come in (client→hub, hub→client) pairs in
	// client order.
	owner := make([]int, g.NumLinks())
	for v := 0; v < nVNs; v++ {
		owner[2*v] = v % cfg.Cores
		owner[2*v+1] = v % cfg.Cores
	}
	pod := bind.NewPOD(owner, cfg.Cores)
	sched := vtime.NewScheduler()
	prof := emucore.DefaultProfile()
	prof.PayloadCaching = payloadCaching
	emu, err := emucore.New(sched, g, b, pod, prof, cfg.Seed)
	if err != nil {
		return Table1Row{}, err
	}

	// Senders are VNs 0..Pairs-1, receivers Pairs..2*Pairs-1. The first
	// crossPct% of flows pick a receiver in a different core group; the
	// rest stay within their group.
	crossFlows := cfg.Pairs * crossPct / 100
	for i := 0; i < cfg.Pairs; i++ {
		src := i
		var dst int
		if i < crossFlows {
			// Receiver in the next core group with the same pair offset.
			dst = cfg.Pairs + (i/cfg.Cores)*cfg.Cores + (src+1)%cfg.Cores
		} else {
			dst = cfg.Pairs + (i/cfg.Cores)*cfg.Cores + src%cfg.Cores
		}
		if dst >= nVNs {
			dst = cfg.Pairs + src%cfg.Cores
		}
		srcHost := netstack.NewHost(pipes.VN(src), sched, emu, emu)
		dstHost := netstack.NewHost(pipes.VN(dst), sched, emu, emu)
		if _, err := traffic.NewSink(dstHost, 80); err != nil {
			return Table1Row{}, err
		}
		// Stagger starts across ~200 ms to avoid artificial lockstep.
		start := vtime.Time(int64(i) * int64(200*vtime.Millisecond) / int64(cfg.Pairs))
		dvn := pipes.VN(dst)
		sched.At(start, func() {
			traffic.StartBulk(srcHost, netstack.Endpoint{VN: dvn, Port: 80}, traffic.Unbounded)
		})
	}
	sched.RunFor(cfg.Warmup)
	start := emu.Delivered
	sched.RunFor(cfg.Duration)
	row := Table1Row{CrossPct: crossPct, Kpps: float64(emu.Delivered-start) / cfg.Duration.Seconds() / 1e3}
	for c := 0; c < cfg.Cores; c++ {
		cs := emu.CoreStats(c)
		row.Tunnels += cs.TunnelsOut
		row.TunnelBytes += cs.TunnelTxBytes
	}
	return row, nil
}

// PrintTable1 renders the table.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fprintf(w, "Table 1: 4-core throughput vs cross-core traffic\n")
	fprintf(w, "%12s %18s\n", "cross-core", "Kpkt/sec")
	for _, r := range rows {
		fprintf(w, "%11d%% %18.1f\n", r.CrossPct, r.Kpps)
	}
}
