package experiments

import (
	"io"

	"modelnet/internal/bind"
	"modelnet/internal/emucore"
	"modelnet/internal/netstack"
	"modelnet/internal/pipes"
	"modelnet/internal/routing"
	"modelnet/internal/topology"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

// Ablations for the design alternatives the paper names but does not
// evaluate against each other: payload caching for cross-core tunnels
// (§2.2) and perfect-vs-emulated routing failover (§2.3). The §2.2
// route-table designs have no ablation here: every run routes through a
// route cache filled on first use, and what a table costs — a hit, a miss,
// the offline O(n²) matrix build — is measured where it can be measured, by
// the bind package's BenchmarkCacheHit*, BenchmarkCacheMiss and
// BenchmarkBuildMatrix (CI's size step prints them). A row of n(n−1) and a
// row of a hand-picked working set would only restate arithmetic.

// PayloadCachingRow is one tunneling variant's throughput.
type PayloadCachingRow struct {
	Caching  bool
	Kpps     float64
	TunnelMB float64 // bytes tunneled between cores
}

// RunPayloadCachingAblation measures Table 1's worst case (100% cross-core
// traffic) with and without the §2.2 payload-caching optimization
// ("leaving the packet contents buffered on the entry core node").
func RunPayloadCachingAblation() ([]PayloadCachingRow, error) {
	var rows []PayloadCachingRow
	for _, caching := range []bool{false, true} {
		row, err := runTable1Point(DefaultTable1(), 100, caching)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PayloadCachingRow{Caching: caching, Kpps: row.Kpps, TunnelMB: float64(row.TunnelBytes) / 1e6})
	}
	return rows, nil
}

// PrintPayloadCachingAblation renders the comparison.
func PrintPayloadCachingAblation(w io.Writer, rows []PayloadCachingRow) {
	fprintf(w, "Ablation: payload caching for cross-core tunnels (100%% crossing)\n")
	fprintf(w, "%-16s %12s %14s\n", "tunneling", "Kpkt/s", "tunnel MB")
	for _, r := range rows {
		name := "full packet"
		if r.Caching {
			name = "descriptor only"
		}
		fprintf(w, "%-16s %12.1f %14.1f\n", name, r.Kpps, r.TunnelMB)
	}
}

// FailoverRow is one routing mode's observed outage.
type FailoverRow struct {
	Mode     string
	OutageMs float64
	Lost     int
}

// RunFailoverAblation compares the base system's "perfect routing"
// assumption (instant reconvergence, §2.3) against the emulated
// distance-vector module: a CBR stream crosses a diamond whose fast path
// is cut mid-run; the outage is the largest inter-arrival gap.
func RunFailoverAblation() ([]FailoverRow, error) {
	var rows []FailoverRow
	for _, mode := range []string{"perfect", "distance-vector"} {
		row, err := runFailover(mode)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runFailover(mode string) (FailoverRow, error) {
	g := topology.New()
	a := g.AddNode(topology.Client, "a")
	top := g.AddNode(topology.Stub, "top")
	bot := g.AddNode(topology.Stub, "bot")
	b := g.AddNode(topology.Client, "b")
	f1, f1r := g.AddDuplex(a, top, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.001, QueuePkts: 30})
	g.AddDuplex(top, b, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.001, QueuePkts: 30})
	g.AddDuplex(a, bot, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.010, QueuePkts: 30})
	g.AddDuplex(bot, b, topology.LinkAttrs{BandwidthBps: 10e6, LatencySec: 0.010, QueuePkts: 30})

	bnd, err := bind.Bind(g, bind.Options{})
	if err != nil {
		return FailoverRow{}, err
	}
	sched := vtime.NewScheduler()
	emu, err := emucore.New(sched, g, bnd, nil, emucore.IdealProfile(), 3)
	if err != nil {
		return FailoverRow{}, err
	}
	var dv *routing.DV
	if mode == "distance-vector" {
		dv = routing.New(sched, g, bnd.VNHome, routing.Config{AdvertiseEvery: 2 * vtime.Second})
		emu.SetTable(dv.Table())
		dv.Start()
	}

	h0 := netstack.NewHost(0, sched, emu, emu)
	h1 := netstack.NewHost(1, sched, emu, emu)
	var arrivals []vtime.Time
	h1.OpenUDP(9, func(netstack.Endpoint, *netstack.Datagram) {
		arrivals = append(arrivals, sched.Now())
	})
	s, err := h0.OpenUDP(0, nil)
	if err != nil {
		return FailoverRow{}, err
	}
	const interval = 20 * vtime.Millisecond
	tick := vtime.NewTicker(sched, interval, func() {
		s.SendTo(netstack.Endpoint{VN: 1, Port: 9}, 200, nil)
	})
	sched.RunUntil(vtime.Time(10 * vtime.Second))
	tick.Start()
	failAt := vtime.Time(20*vtime.Second + 700*vtime.Millisecond)
	sched.At(failAt, func() {
		if dv != nil {
			dv.SetLinkDown(f1, true)
			dv.SetLinkDown(f1r, true)
			p := emu.Pipe(pipes.ID(f1)).Params()
			p.LossRate = 0.999999
			emu.SetPipeParams(pipes.ID(f1), p)
		} else {
			// Perfect routing: instantaneous shortest-path recomputation.
			traffic.FailLinks(emu, map[topology.LinkID]bool{f1: true, f1r: true})
		}
	})
	sched.RunUntil(vtime.Time(50 * vtime.Second))
	tick.Stop()

	var outage vtime.Duration
	sent := int(vtime.Time(50*vtime.Second).Sub(vtime.Time(10*vtime.Second)) / vtime.Duration(interval))
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < failAt {
			continue
		}
		if gap := arrivals[i].Sub(arrivals[i-1]); gap > outage {
			outage = gap
		}
	}
	return FailoverRow{
		Mode:     mode,
		OutageMs: float64(outage) / float64(vtime.Millisecond),
		Lost:     sent - len(arrivals),
	}, nil
}

// PrintFailoverAblation renders the comparison.
func PrintFailoverAblation(w io.Writer, rows []FailoverRow) {
	fprintf(w, "Ablation: §2.3 routing — perfect vs emulated distance-vector failover\n")
	fprintf(w, "%-18s %12s %8s\n", "routing", "outage ms", "lost")
	for _, r := range rows {
		fprintf(w, "%-18s %12.1f %8d\n", r.Mode, r.OutageMs, r.Lost)
	}
}
