package experiments

import (
	"fmt"
	"io"

	"modelnet"
	"modelnet/internal/apps/cfs"
	"modelnet/internal/apps/chord"
	"modelnet/internal/edge"
	"modelnet/internal/netstack"
	"modelnet/internal/stats"
	"modelnet/internal/traffic"
	"modelnet/internal/vtime"
)

// Figures 7-9 (§5.1) reproduce the published CFS results on a RON-like
// topology: download speed of a 1 MB file striped over Chord/DHash as a
// function of the prefetch window (Fig. 7, with 12 VNs on 12 machines vs
// all on one machine), the per-node CDF at windows 8/24/40 KB (Fig. 8),
// and plain TCP transfer-speed CDFs for 8/64/1126 KB files between node
// pairs (Fig. 9).

// CFSConfig parameterizes the §5.1 experiments.
type CFSConfig struct {
	Sites      []cfs.SiteClass
	FileBytes  int
	WindowsKB  []int // Fig. 7 sweep
	CDFWindows []int // Fig. 8 windows (KB)
	Seed       int64
	// Downloaders lists which nodes run a download per point (Fig. 7
	// averages over them; Fig. 8 uses all).
	Downloaders []int
	// Cores/Parallel/Profile select the core-cluster configuration (the
	// zero values preserve the paper runs: one core, default profile).
	Cores    int
	Parallel bool
	Profile  *modelnet.Profile
}

// DefaultCFS is the full configuration.
func DefaultCFS() CFSConfig {
	return CFSConfig{
		Sites:       cfs.RONSites,
		FileBytes:   1 << 20,
		WindowsKB:   []int{0, 8, 16, 24, 32, 40, 56, 72, 96, 128, 192, 256},
		CDFWindows:  []int{8, 24, 40},
		Seed:        5,
		Downloaders: []int{0, 3, 6, 9},
	}
}

// cfsCluster is a bootstrapped CFS deployment over the RON-like mesh.
type cfsCluster struct {
	em    *modelnet.Emulation
	peers []*cfs.Peer
}

// newCFSCluster builds the deployment; oneMachine multiplexes all 12 VNs
// onto a single modeled edge machine (the paper's "ModelNet 1 machine"
// curve).
func newCFSCluster(cfg CFSConfig, oneMachine bool) (*cfsCluster, error) {
	g := cfs.RONTopology(cfg.Sites, cfg.Seed)
	em, err := modelnet.Run(g, modelnet.Options{
		Seed:     cfg.Seed,
		Cores:    cfg.Cores,
		Parallel: cfg.Parallel,
		Profile:  cfg.Profile,
	})
	if err != nil {
		return nil, err
	}
	var machine *edge.Machine
	var inj netstack.Injector
	if oneMachine {
		// The one-machine model needs the single sequential scheduler; it
		// is a sequential-mode experiment by construction.
		if em.Par != nil {
			return nil, fmt.Errorf("cfs: the one-machine variant requires sequential mode (Parallel=false)")
		}
		mc := edge.DefaultMachineConfig()
		machine = edge.NewMachine(em.Sched, mc)
		inj = machine.WrapInjector(em.Emu)
	}
	cl := &cfsCluster{em: em}
	var cnodes []*chord.Node
	for i := 0; i < em.NumVNs(); i++ {
		var h *netstack.Host
		if oneMachine {
			machine.AddProcess()
			h = em.NewHostVia(modelnet.VN(i), inj)
		} else {
			h = em.NewHost(modelnet.VN(i))
		}
		// Generous RPC timeouts: RON paths reach ~300 ms RTT and block
		// transfers queue behind large prefetch windows.
		ccfg := chord.Config{RPCTimeout: 2 * vtime.Second, RPCRetries: 3}
		p, err := cfs.NewPeer(h, chord.HashString(fmt.Sprintf("ron-site-%d", i)), ccfg)
		if err != nil {
			return nil, err
		}
		cl.peers = append(cl.peers, p)
		cnodes = append(cnodes, p.Chord)
	}
	chord.BootstrapAll(cnodes)
	cfs.Stripe(cl.peers, "cfs-1mb", cfg.FileBytes)
	return cl, nil
}

// download runs one fetch and returns its speed in KB/s.
func (cl *cfsCluster) download(cfg CFSConfig, node, windowBytes int) (float64, error) {
	blocks := cfs.FileBlocks("cfs-1mb", cfg.FileBytes)
	var res cfs.FetchResult
	got := false
	cl.peers[node].Fetch(blocks, windowBytes, func(r cfs.FetchResult) { res = r; got = true })
	cl.em.RunUntil(cl.em.Now().Add(modelnet.Seconds(600)))
	if !got {
		return 0, fmt.Errorf("cfs: download from node %d never completed", node)
	}
	if res.Failed > 0 {
		return 0, fmt.Errorf("cfs: %d blocks failed", res.Failed)
	}
	return res.SpeedKBps, nil
}

// Fig7Row is one point of the prefetch sweep.
type Fig7Row struct {
	WindowKB int
	Speed12  float64 // KB/s, 12 physical edge machines
	Speed1   float64 // KB/s, 12 VNs multiplexed on one machine
}

// RunFig7 sweeps the prefetch window for both hosting variants.
func RunFig7(cfg CFSConfig) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, wkb := range cfg.WindowsKB {
		row := Fig7Row{WindowKB: wkb}
		for _, oneMachine := range []bool{false, true} {
			// Fresh cluster per point: downloads must not share TCP or
			// cache state.
			cl, err := newCFSCluster(cfg, oneMachine)
			if err != nil {
				return nil, err
			}
			sum := 0.0
			for _, node := range cfg.Downloaders {
				sp, err := cl.download(cfg, node, wkb<<10)
				if err != nil {
					return nil, err
				}
				sum += sp
			}
			mean := sum / float64(len(cfg.Downloaders))
			if oneMachine {
				row.Speed1 = mean
			} else {
				row.Speed12 = mean
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig7 renders the sweep.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fprintf(w, "Figure 7: CFS download speed vs prefetch window (KB/s)\n")
	fprintf(w, "%10s %14s %14s\n", "window KB", "12 machines", "1 machine")
	for _, r := range rows {
		fprintf(w, "%10d %14.1f %14.1f\n", r.WindowKB, r.Speed12, r.Speed1)
	}
}

// Fig8Series is a per-window download-speed CDF across nodes.
type Fig8Series struct {
	WindowKB int
	CDF      []stats.CDFPoint
}

// RunFig8 downloads from every node at each window and returns speed CDFs.
func RunFig8(cfg CFSConfig) ([]Fig8Series, error) {
	var out []Fig8Series
	for _, wkb := range cfg.CDFWindows {
		sample := &stats.Sample{}
		for node := range cfg.Sites {
			cl, err := newCFSCluster(cfg, false)
			if err != nil {
				return nil, err
			}
			sp, err := cl.download(cfg, node, wkb<<10)
			if err != nil {
				return nil, err
			}
			sample.Add(sp)
		}
		out = append(out, Fig8Series{WindowKB: wkb, CDF: sample.CDFAt(12)})
	}
	return out, nil
}

// PrintFig8 renders the CDFs.
func PrintFig8(w io.Writer, series []Fig8Series) {
	fprintf(w, "Figure 8: CDF of CFS download speed by prefetch window (KB/s)\n")
	for _, s := range series {
		fprintf(w, "window %3d KB: p25=%7.1f p50=%7.1f p75=%7.1f max=%7.1f\n",
			s.WindowKB, cdfAtP(s.CDF, 0.25), cdfAtP(s.CDF, 0.50), cdfAtP(s.CDF, 0.75), cdfAtP(s.CDF, 1.0))
	}
}

// Fig9Config parameterizes the plain-TCP transfer CDFs.
type Fig9Config struct {
	Sites     []cfs.SiteClass
	SizesKB   []int
	PairLimit int // max ordered pairs per size (0 = all)
	Seed      int64
}

// DefaultFig9 uses the paper's three transfer sizes over all pairs.
func DefaultFig9() Fig9Config {
	return Fig9Config{Sites: cfs.RONSites, SizesKB: []int{8, 64, 1126}, Seed: 5}
}

// Fig9Series is one transfer-size CDF (speeds in KB/s).
type Fig9Series struct {
	SizeKB int
	CDF    []stats.CDFPoint
}

// RunFig9 measures TCP transfer speeds between RON pairs, one transfer at
// a time (chained) so transfers don't contend with each other, exactly as
// in sequential wide-area measurement.
func RunFig9(cfg Fig9Config) ([]Fig9Series, error) {
	var out []Fig9Series
	for _, sizeKB := range cfg.SizesKB {
		g := cfs.RONTopology(cfg.Sites, cfg.Seed)
		em, err := modelnet.Run(g, modelnet.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		n := em.NumVNs()
		hosts := em.NewHosts()
		sample := &stats.Sample{}

		type pair struct{ a, b int }
		var pairsList []pair
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					pairsList = append(pairsList, pair{i, j})
				}
			}
		}
		if cfg.PairLimit > 0 && len(pairsList) > cfg.PairLimit {
			pairsList = pairsList[:cfg.PairLimit]
		}
		for si, h := range hosts {
			port := uint16(8000 + si)
			if _, err := traffic.NewSink(h, port); err != nil {
				return nil, err
			}
		}
		size := sizeKB << 10
		idx := 0
		var runNext func()
		runNext = func() {
			if idx >= len(pairsList) {
				return
			}
			p := pairsList[idx]
			idx++
			start := em.Now()
			src := hosts[p.a]
			c := src.Dial(netstack.Endpoint{VN: modelnet.VN(p.b), Port: uint16(8000 + p.b)}, netstack.Handlers{})
			// Completion = all bytes acknowledged at the sender.
			var ticker *vtime.Ticker
			ticker = vtime.NewTicker(em.Sched, 10*vtime.Millisecond, func() {
				if int(c.BytesSent) < size {
					return
				}
				if el := em.Now().Sub(start).Seconds(); el > 0 {
					sample.Add(float64(size) / 1024 / el)
				}
				ticker.Stop()
				runNext()
			})
			ticker.Start()
			c.WriteCount(size)
			c.Close()
		}
		runNext()
		em.RunUntil(em.Now().Add(modelnet.Seconds(float64(len(pairsList)) * 120)))
		out = append(out, Fig9Series{SizeKB: sizeKB, CDF: sample.CDFAt(12)})
	}
	return out, nil
}

// PrintFig9 renders the CDFs.
func PrintFig9(w io.Writer, series []Fig9Series) {
	fprintf(w, "Figure 9: CDF of TCP transfer speed between RON pairs (KB/s)\n")
	for _, s := range series {
		fprintf(w, "size %5d KB: p25=%7.1f p50=%7.1f p75=%7.1f max=%7.1f\n",
			s.SizeKB, cdfAtP(s.CDF, 0.25), cdfAtP(s.CDF, 0.50), cdfAtP(s.CDF, 0.75), cdfAtP(s.CDF, 1.0))
	}
}
