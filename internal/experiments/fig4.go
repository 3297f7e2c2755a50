package experiments

import (
	"io"

	"modelnet"
	"modelnet/internal/netstack"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

// Fig4 reproduces Figure 4: capacity of a single ModelNet core in
// packets/second as a function of simultaneous TCP flows (each limited to
// 10 Mb/s by its private pipe path) and of emulated hops per flow. The
// published result: 1-hop flows saturate the gigabit NIC at ≈120 Kpkt/s
// with the CPU only ~50% busy; at 8 hops the CPU saturates first at
// ≈90 Kpkt/s and physical NIC drops throttle the senders.

// Fig4Config parameterizes the sweep.
type Fig4Config struct {
	Hops     []int // pipes per flow path (paper: 1,2,4,8,12)
	Flows    []int // concurrent netperf pairs (paper: up to 120)
	Duration modelnet.Duration
	Warmup   modelnet.Duration
	Seed     int64
}

// DefaultFig4 is the paper's full sweep.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		Hops:     []int{1, 2, 4, 8, 12},
		Flows:    []int{8, 24, 48, 72, 96, 120},
		Duration: modelnet.Seconds(1.5),
		Warmup:   modelnet.Seconds(1.0),
		Seed:     1,
	}
}

// Fig4Row is one measured point.
type Fig4Row struct {
	Hops    int
	Flows   int
	Kpps    float64 // packets/second through the core, thousands
	CPUUtil float64 // core CPU busy fraction during measurement
	Drops   uint64  // physical drops during measurement
}

// RunFig4 executes the sweep.
func RunFig4(cfg Fig4Config) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, hops := range cfg.Hops {
		for _, flows := range cfg.Flows {
			row, err := runFig4Point(cfg, hops, flows)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runFig4Point(cfg Fig4Config, hops, flows int) (Fig4Row, error) {
	em, err := bulkPairs(flows, hops, 200*vtime.Millisecond, modelnet.DefaultProfile(), cfg.Seed)
	if err != nil {
		return Fig4Row{}, err
	}
	em.RunFor(cfg.Warmup)
	startPkts := em.Emu.Delivered
	startCPU := em.Emu.CoreStats(0).CPUWork
	startDrops := physDrops(em)
	em.RunFor(cfg.Duration)
	dur := cfg.Duration.Seconds()
	return Fig4Row{
		Hops:    hops,
		Flows:   flows,
		Kpps:    float64(em.Emu.Delivered-startPkts) / dur / 1e3,
		CPUUtil: (em.Emu.CoreStats(0).CPUWork - startCPU).Seconds() / dur,
		Drops:   physDrops(em) - startDrops,
	}, nil
}

// bulkPairs is the load Fig. 4 and the §3.1 accuracy bound measure: each of
// `flows` pairs gets a private chain of `hops` 10 Mb/s pipes with 10 ms total
// one-way latency and one unbounded TCP bulk flow, flow i starting at
// i×stagger/flows — simultaneous slow-start bursts from perfectly
// synchronized senders are an artifact no real netperf run exhibits.
func bulkPairs(flows, hops int, stagger vtime.Duration, prof modelnet.Profile, seed int64) (*modelnet.Emulation, error) {
	attr := modelnet.LinkAttrs{
		BandwidthBps: modelnet.Mbps(10),
		LatencySec:   modelnet.Ms(10) / float64(hops),
		QueuePkts:    20,
	}
	// The pairs topology is deliberately disconnected (each flow has a
	// private path), so use the route cache rather than the all-pairs
	// matrix.
	em, err := modelnet.Run(modelnet.Pairs(flows, hops, attr), modelnet.Options{Seed: seed, RouteCache: flows * 8, Profile: &prof})
	if err != nil {
		return nil, err
	}
	for i := 0; i < flows; i++ {
		src := em.NewHost(modelnet.VN(2 * i))
		dst := em.NewHost(modelnet.VN(2*i + 1))
		if _, err := traffic.NewSink(dst, 80); err != nil {
			return nil, err
		}
		em.Sched.At(modelnet.Time(int64(i)*int64(stagger)/int64(flows)), func() {
			traffic.StartBulk(src, netstack.Endpoint{VN: dst.VN(), Port: 80}, traffic.Unbounded)
		})
	}
	return em, nil
}

func physDrops(em *modelnet.Emulation) uint64 {
	var n uint64
	for i := 0; i < em.Emu.Cores(); i++ {
		cs := em.Emu.CoreStats(i)
		n += cs.PhysDropsCPU + cs.PhysDropsNIC + cs.PhysDropsTx
	}
	return n
}

// PrintFig4 renders the rows as the figure's series.
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fprintf(w, "Figure 4: single-core capacity (pkts/sec vs flows, per hop count)\n")
	fprintf(w, "%6s %6s %12s %8s %10s\n", "hops", "flows", "Kpkts/sec", "cpu", "drops")
	for _, r := range rows {
		fprintf(w, "%6d %6d %12.1f %7.0f%% %10d\n", r.Hops, r.Flows, r.Kpps, r.CPUUtil*100, r.Drops)
	}
}
