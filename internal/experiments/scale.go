package experiments

import (
	"io"
	"math/rand"
	"sync"

	"modelnet"
	"modelnet/internal/apps/gnutella"
	"modelnet/internal/pipes"
	"modelnet/internal/stats"
)

// The paper's largest single experiment evaluated "system evolution and
// connectivity of a 10,000 node network of unmodified gnutella clients by
// mapping 100 VNs to each of 100 edge nodes". This driver reproduces the
// connectivity measurement at the same scale.

// ScaleConfig parameterizes the gnutella scale run.
type ScaleConfig struct {
	Servents int
	Degree   int
	TTL      int
	EdgeVNs  int // VNs multiplexed per edge node (paper: 100)
	Window   modelnet.Duration
	Seed     int64
	// Cores and Parallel select the core-cluster configuration; Cores 0
	// means 1. With Parallel set the run uses the parallel runtime
	// (internal/parcore) and must produce the same result.
	Cores    int
	Parallel bool
}

// DefaultScale is the paper's 10,000-servent configuration.
func DefaultScale() ScaleConfig {
	return ScaleConfig{
		Servents: 10000,
		Degree:   4,
		TTL:      7,
		EdgeVNs:  100,
		Window:   modelnet.Seconds(60),
		Seed:     15,
	}
}

// ScaleResult summarizes the connectivity measurement.
type ScaleResult struct {
	Servents   int
	Reachable  int // distinct peers answering a TTL-bounded ping flood
	Forwarded  uint64
	Duplicates uint64
	CorePkts   uint64
	// Deliveries samples every packet's delivery time (seconds); its CDF
	// is the determinism probe comparing sequential and parallel modes.
	Deliveries *stats.Sample
}

// RunScale builds the overlay and floods a ping from servent 0.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	n := cfg.Servents
	attr := modelnet.LinkAttrs{
		BandwidthBps: modelnet.Mbps(10),
		LatencySec:   modelnet.Ms(5),
		QueuePkts:    200,
	}
	g := modelnet.Star(n, attr)
	// Heterogeneous last miles: jitter each access latency up to ±20%.
	// Real populations are not metronomes, and distinct per-link delays
	// keep the flood's wavefronts from colliding in the same nanosecond —
	// which is also what lets the sequential and parallel runtimes agree
	// packet-for-packet.
	latRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1e))
	for i := range g.Links {
		a := g.Links[i].Attr
		a.LatencySec *= 0.8 + 0.4*latRng.Float64()
		g.Links[i].Attr = a
	}
	ideal := modelnet.IdealProfile()
	em, err := modelnet.Run(g, modelnet.Options{
		Profile:    &ideal,
		Seed:       cfg.Seed,
		RouteCache: 1 << 17, // the O(n²) matrix would be 100M routes at 10k VNs
		EdgeNodes:  (n + cfg.EdgeVNs - 1) / cfg.EdgeVNs,
		Cores:      cfg.Cores,
		Parallel:   cfg.Parallel,
	})
	if err != nil {
		return nil, err
	}
	res := &ScaleResult{Servents: n, Deliveries: &stats.Sample{}}
	var mu sync.Mutex
	em.OnDeliver(func(pkt *pipes.Packet, at modelnet.Time) {
		mu.Lock()
		res.Deliveries.Add(at.Seconds())
		mu.Unlock()
	})
	rng := rand.New(rand.NewSource(cfg.Seed))
	peers := make([]*gnutella.Peer, n)
	for i := range peers {
		p, err := gnutella.NewPeer(em.NewHost(modelnet.VN(i)), i, gnutella.Config{DefaultTTL: cfg.TTL})
		if err != nil {
			return nil, err
		}
		peers[i] = p
	}
	connect := func(a, b int) {
		peers[a].Connect(peers[b].Addr())
		peers[b].Connect(peers[a].Addr())
	}
	for i := 1; i < n; i++ {
		connect(i, rng.Intn(i))
	}
	for i := 0; i < n*(cfg.Degree-2)/2; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			connect(a, b)
		}
	}
	peers[0].Reachability(cfg.Window, func(c int) { res.Reachable = c })
	em.RunFor(cfg.Window + modelnet.Seconds(5))
	for _, p := range peers {
		res.Forwarded += p.Forwarded
		res.Duplicates += p.Duplicates
	}
	res.CorePkts = em.Totals().Delivered
	return res, nil
}

// PrintScale renders the result.
func PrintScale(w io.Writer, res *ScaleResult) {
	fprintf(w, "Gnutella scale study: %d servents\n", res.Servents)
	fprintf(w, "  reachable from servent 0: %d (%.1f%%)\n",
		res.Reachable, 100*float64(res.Reachable)/float64(res.Servents-1))
	fprintf(w, "  flood: %d forwarded, %d duplicates suppressed, %d packets emulated\n",
		res.Forwarded, res.Duplicates, res.CorePkts)
}
