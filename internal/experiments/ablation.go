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
// evaluate against each other: the two §2.2 route-table designs it built
// (precomputed matrix, LRU cache), payload caching for cross-core tunnels
// (§2.2), and perfect-vs-emulated routing failover (§2.3).

// RouteTableRow compares one table implementation.
type RouteTableRow struct {
	Name    string
	Entries int    // stored routes
	HitCost string // qualitative lookup cost
}

// RunRouteTableAblation builds both tables over the paper's ring and
// reports storage. (Lookup-time behaviour is asserted in the bind tests;
// here the interesting number is memory.)
func RunRouteTableAblation() ([]RouteTableRow, error) {
	g := topology.Ring(20, 20,
		topology.LinkAttrs{BandwidthBps: 20e6, LatencySec: 0.005, QueuePkts: 30},
		topology.LinkAttrs{BandwidthBps: 2e6, LatencySec: 0.001, QueuePkts: 20})
	homes := g.Clients()
	n := len(homes)

	var rows []RouteTableRow
	if _, err := bind.BuildMatrix(g, homes); err != nil {
		return nil, err
	}
	rows = append(rows, RouteTableRow{
		Name: "matrix (O(n²))", Entries: n * (n - 1), HitCost: "O(1) index",
	})
	c := bind.NewCache(g, homes, 4*n)
	// Touch a plausible working set so the cache row reflects steady state.
	for i := 0; i < n; i++ {
		c.Lookup(pipes.VN(i), pipes.VN((i+7)%n))
	}
	rows = append(rows, RouteTableRow{
		Name: "LRU cache (O(n lg n))", Entries: c.Len(), HitCost: "O(1) hit, Dijkstra miss",
	})
	return rows, nil
}

// PrintRouteTableAblation renders the comparison.
func PrintRouteTableAblation(w io.Writer, rows []RouteTableRow) {
	fprintf(w, "Ablation: §2.2 route table designs (20x20 ring, 400 VNs)\n")
	fprintf(w, "%-24s %12s  %s\n", "design", "routes", "lookup")
	for _, r := range rows {
		fprintf(w, "%-24s %12d  %s\n", r.Name, r.Entries, r.HitCost)
	}
}

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
			if err := traffic.FailLinks(emu, map[topology.LinkID]bool{f1: true, f1r: true}); err != nil {
				panic(err)
			}
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
